package ftl

import "biscuit/internal/sim"

// Range I/O: multi-page operations that fan out across channels. A large
// request is split into page commands issued concurrently, so bandwidth
// grows with request size until all channels are saturated — the shape of
// the paper's Fig. 7. Each page command can fail independently; a range
// operation completes when every command has, and reports the first
// error (one status per request, as NVMe does).

// ReadRange reads length bytes starting at byte offset off in the logical
// address space, issuing all page reads in parallel and returning the
// assembled buffer.
func (f *FTL) ReadRange(p *sim.Proc, off int64, length int) ([]byte, error) {
	buf := make([]byte, length)
	if err := f.ReadRangeAsyncInto(p, off, buf).Wait(p); err != nil {
		return nil, err
	}
	return buf, nil
}

// piece is one logical page's share of a byte range: n bytes at pageOff
// within page lpn, found at offset at within the range.
type piece struct {
	lpn, pageOff, n int
	at              int
}

// split cuts the byte range [off, off+length) of the logical address
// space at page boundaries. Every range operation goes through it.
func (f *FTL) split(off int64, length int) []piece {
	ps := int64(f.PageSize())
	var pieces []piece
	for at := 0; at < length; {
		cur := off + int64(at)
		po := int(cur % ps)
		n := int(ps) - po
		if n > length-at {
			n = length - at
		}
		pieces = append(pieces, piece{lpn: int(cur / ps), pageOff: po, n: n, at: at})
		at += n
	}
	return pieces
}

// ReadRangeAsyncInto starts a parallel read of len(buf) bytes at byte
// offset off into buf and returns its completion. Each page command
// lands its bytes straight in its piece of buf; a piece whose read fails
// is left untouched. Multiple outstanding calls overlap, which is how
// the asynchronous file API reaches full internal bandwidth at smaller
// request sizes.
func (f *FTL) ReadRangeAsyncInto(p *sim.Proc, off int64, buf []byte) *sim.Completion {
	pieces := f.split(off, len(buf))
	done := sim.NewCompletion(f.env, len(pieces))
	for _, pc := range pieces {
		f.env.Spawn("ftl-read", func(rp *sim.Proc) {
			done.Done(f.readInto(rp, pc.lpn, pc.pageOff, buf[pc.at:pc.at+pc.n]))
		})
	}
	return done
}

// ReadRangeThrough streams length bytes at byte offset off through the
// per-channel pattern matcher path: page commands fan out across
// channels and each page's bytes are handed to sink as they cross the
// bus. Sink invocation order follows completion order; callers that need
// positions receive the page's starting byte offset. Pages whose matcher
// stream fails ECC are recovered through the buffered retry path inside
// ReadThrough; only retry-exhausted pages make the call error (sink is
// never handed bytes from a failed page).
func (f *FTL) ReadRangeThrough(p *sim.Proc, off int64, length int, ipOverhead sim.Time, sink func(pageOff int64, data []byte)) error {
	pieces := f.split(off, length)
	done := sim.NewCompletion(f.env, len(pieces))
	for _, pc := range pieces {
		f.env.Spawn("ftl-match", func(rp *sim.Proc) {
			done.Done(f.ReadThrough(rp, pc.lpn, pc.pageOff, pc.n, ipOverhead, func(b []byte) {
				sink(off+int64(pc.at), b)
			}))
		})
	}
	return done.Wait(p)
}

// Peek copies [off, off+len(dst)) of the logical address space into dst
// without advancing simulated time (cache-hit modeling; see
// nand.Array.Peek). Unmapped pages read back as zeroes.
func (f *FTL) Peek(off int64, dst []byte) {
	for _, pc := range f.split(off, len(dst)) {
		copy(dst[pc.at:pc.at+pc.n], f.Lend(off+int64(pc.at), pc.n))
	}
}

// Lend returns the stored bytes of [off, off+n) of the logical address
// space without advancing simulated time (nand.Array.Lend), or nil if
// the range crosses a page boundary. Unmapped pages lend the shared zero
// page.
func (f *FTL) Lend(off int64, n int) []byte {
	ps := int64(f.PageSize())
	lpn, po := int(off/ps), int(off%ps)
	if po+n > int(ps) {
		return nil
	}
	f.checkLPN(lpn)
	if ppi := f.l2pAt(lpn); ppi >= 0 {
		return f.arr.Lend(f.ppa(ppi), po, n)
	}
	return f.arr.Zeroes(n)
}

// WriteRange writes buf at byte offset off, one page at a time. Page-
// aligned full-page writes avoid read-modify-write. Writes are issued in
// parallel across the frontier dies.
func (f *FTL) WriteRange(p *sim.Proc, off int64, buf []byte) error {
	return f.WriteRangeAsync(p, off, buf).Wait(p)
}

// WriteRangeAsync starts a parallel write and returns its completion.
// The logical->die assignment still happens in issue order, so data
// layout remains deterministic.
func (f *FTL) WriteRangeAsync(p *sim.Proc, off int64, buf []byte) *sim.Completion {
	pieces := f.split(off, len(buf))
	done := sim.NewCompletion(f.env, len(pieces))
	for _, pc := range pieces {
		f.env.Spawn("ftl-write", func(wp *sim.Proc) {
			done.Done(f.Write(wp, pc.lpn, pc.pageOff, buf[pc.at:pc.at+pc.n]))
		})
	}
	return done
}
