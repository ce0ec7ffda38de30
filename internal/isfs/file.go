package isfs

import (
	"fmt"

	"biscuit/internal/sim"
)

// File is an open handle. The paper's File class exists in both libsisc
// (host proxies) and libslet (device side); both resolve to this type,
// with the transport chosen by the caller (direct FTL access on the
// device, NVMe segments on the host).
type File struct {
	fs   *FS
	ino  *inode
	mode Mode

	pending []*sim.Completion // outstanding async writes, drained by Flush
}

// Name returns the file name.
func (f *File) Name() string { return f.ino.Name }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.ino.Size }

// Mode returns the handle's open mode.
func (f *File) Mode() Mode { return f.mode }

// Segment is a contiguous byte range in the FTL's logical space.
type Segment struct {
	FTLOff int64
	N      int
}

// Segments resolves the byte range [off, off+n) of the file into FTL
// byte segments. It is the host-side (Conv) access path: callers move
// each segment over the host interface themselves.
func (f *File) Segments(off int64, n int) ([]Segment, error) {
	if off < 0 || off+int64(n) > f.ino.Size {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+int64(n), f.ino.Size)
	}
	ps := int64(f.fs.f.PageSize())
	var segs []Segment
	pos := int64(0) // byte position of current extent's start within file
	for _, e := range f.ino.Extents {
		elen := int64(e.Count) * ps
		lo, hi := off, off+int64(n)
		if hi <= pos || lo >= pos+elen {
			pos += elen
			continue
		}
		if lo < pos {
			lo = pos
		}
		if hi > pos+elen {
			hi = pos + elen
		}
		segs = append(segs, Segment{FTLOff: int64(e.Start)*ps + (lo - pos), N: int(hi - lo)})
		pos += elen
	}
	return merge(segs), nil
}

func merge(segs []Segment) []Segment {
	out := segs[:0]
	for _, s := range segs {
		if len(out) > 0 && out[len(out)-1].FTLOff+int64(out[len(out)-1].N) == s.FTLOff {
			out[len(out)-1].N += s.N
			continue
		}
		out = append(out, s)
	}
	return out
}

// Read fills buf from byte offset off, synchronously, via the device-
// internal path (no host interface). Segments are fetched in parallel
// across channels. Media errors that survive the FTL's read-retry
// surface here, named after the file that hit them.
func (f *File) Read(p *sim.Proc, off int64, buf []byte) (int, error) {
	c, err := f.ReadAsync(p, off, buf)
	if err != nil {
		return 0, err
	}
	if err := c.Wait(p); err != nil {
		return 0, fmt.Errorf("isfs: read %s @%d: %w", f.ino.Name, off, err)
	}
	return len(buf), nil
}

// ReadAsync starts an internal read and returns its completion.
// Issuing several before waiting overlaps media accesses — the paper's
// recommendation for high-bandwidth SSDlet file I/O (§III-D).
func (f *File) ReadAsync(p *sim.Proc, off int64, buf []byte) (*sim.Completion, error) {
	segs, err := f.Segments(off, len(buf))
	if err != nil {
		return nil, err
	}
	env := f.fs.f.Env()
	done := sim.NewCompletion(env, len(segs))
	at := 0
	for _, s := range segs {
		sub := f.fs.f.ReadRangeAsyncInto(p, s.FTLOff, buf[at:at+s.N])
		at += s.N
		env.Spawn("isfs-read-seg", func(sp *sim.Proc) {
			done.Done(sub.Wait(sp))
		})
	}
	return done, nil
}

// Peek copies [off, off+len(buf)) into buf without advancing simulated
// time. It models reads served from a host-side cache (the caller
// charges whatever a cache hit costs); the bytes still come from the
// authoritative on-media store.
func (f *File) Peek(off int64, buf []byte) error {
	segs, err := f.Segments(off, len(buf))
	if err != nil {
		return err
	}
	at := 0
	for _, s := range segs {
		f.fs.f.Peek(s.FTLOff, buf[at:at+s.N])
		at += s.N
	}
	return nil
}

// Lend is Peek without the copy: it returns the media's own stored
// bytes of [off, off+n), read-only, without advancing simulated time,
// or nil if the range is out of the file or crosses a page boundary.
func (f *File) Lend(off int64, n int) []byte {
	if off < 0 || off+int64(n) > f.ino.Size {
		return nil
	}
	ps := int64(f.fs.f.PageSize())
	pos := int64(0) // file position of the current extent's start
	for _, e := range f.ino.Extents {
		elen := int64(e.Count) * ps
		if off < pos+elen {
			if off+int64(n) > pos+elen {
				return nil
			}
			return f.fs.f.Lend(int64(e.Start)*ps+off-pos, n)
		}
		pos += elen
	}
	return nil
}

// ReadThrough streams [off, off+n) through the per-channel pattern
// matcher path; sink receives chunks tagged with their file offset.
func (f *File) ReadThrough(p *sim.Proc, off int64, n int, ipOverhead sim.Time, sink func(fileOff int64, data []byte)) error {
	segs, err := f.Segments(off, n)
	if err != nil {
		return err
	}
	fileOff := off
	for _, s := range segs {
		base := fileOff
		ftlBase := s.FTLOff
		err := f.fs.f.ReadRangeThrough(p, s.FTLOff, s.N, ipOverhead, func(pageOff int64, data []byte) {
			sink(base+(pageOff-ftlBase), data)
		})
		if err != nil {
			return fmt.Errorf("isfs: scan %s @%d: %w", f.ino.Name, base, err)
		}
		fileOff += int64(s.N)
	}
	return nil
}

// ensure grows the file's allocation (not its size) to cover size bytes.
func (f *File) ensure(size int64) error {
	ps := int64(f.fs.f.PageSize())
	have := int64(0)
	for _, e := range f.ino.Extents {
		have += int64(e.Count) * ps
	}
	if size <= have {
		return nil
	}
	needPages := int((size - have + ps - 1) / ps)
	ext, err := f.fs.allocate(needPages)
	if err != nil {
		return err
	}
	f.ino.Extents = append(f.ino.Extents, ext...)
	return nil
}

// Write stores data at byte offset off via the device-internal path,
// asynchronously: it returns once the write is issued. Use Flush to wait
// for durability — the asynchronous-write / synchronous-flush split of
// the paper's File API (§III-D).
func (f *File) Write(p *sim.Proc, off int64, data []byte) error {
	if f.mode == ReadOnly {
		return ErrReadOnly
	}
	if off < 0 {
		return ErrOutOfRange
	}
	end := off + int64(len(data))
	if err := f.ensure(end); err != nil {
		return err
	}
	if end > f.ino.Size {
		f.ino.Size = end
		f.fs.dirty = true
	}
	segs, err := f.Segments(off, len(data))
	if err != nil {
		return err
	}
	at := 0
	for _, s := range segs {
		c := f.fs.f.WriteRangeAsync(p, s.FTLOff, data[at:at+s.N])
		at += s.N
		f.pending = append(f.pending, c)
	}
	return nil
}

// Flush blocks until every asynchronous write issued through this handle
// has reached the media, then persists metadata. Write errors — program
// retries exhausted even after block retirement — are deferred to here,
// matching the asynchronous-write / synchronous-flush split: a write's
// status isn't known until it is durable.
func (f *File) Flush(p *sim.Proc) error {
	var first error
	for _, c := range f.pending {
		if err := c.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	f.pending = f.pending[:0]
	if first != nil {
		return fmt.Errorf("isfs: flush %s: %w", f.ino.Name, first)
	}
	if err := f.fs.Sync(p); err != nil {
		return err
	}
	// Close the open RAIN stripes: a durable flush means the data is
	// parity-protected now, not once later traffic happens to fill the
	// stripe's remaining slots.
	f.fs.f.SealStripe(p)
	return nil
}
