package ftl

// RAIN (redundant array of independent NAND): the FTL's device-side
// parity protection. Every stripe groups W data pages laid down on W
// distinct channels with one XOR parity page on yet another channel, so
// the loss of any single page — a latent sector error, a read that
// exhausts its retry ladder, or a whole dead die — is rebuilt from the
// W surviving pages. Reconstruction pays its honest simulated price:
// W parallel NAND reads across the surviving channels plus an XOR pass
// on the firmware CPU. A patrol scrub (ScrubStep, driven by a device
// fiber) walks the stripe population verifying parity and repairing
// damage before a second failure can make it unrecoverable.
//
// Life cycle: data writes XOR-accumulate into the open stripe
// (stripeAdd); the stripe seals when full or when a write would put a
// second page on one of its channels. Sealed stripes are dropped when
// their last live member is invalidated, narrowed (shrunk) when GC
// must erase a block holding one of their stale members, and have
// their parity relocated when GC collects the parity's block.

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"biscuit/internal/fault"
	"biscuit/internal/sim"
)

// parityMark is the blockMeta.lpns sentinel of a live parity page: not
// a logical page (no lpn), but occupying space the GC must respect.
const parityMark = -2

// openStripe accumulates one write stream's data pages until seal.
type openStripe struct {
	buf     []byte // XOR accumulator over the members so far
	members []int  // data ppis in arrival order
	chans   uint64 // mask of channels used (at most one stripe page each)
	stream  int    // write stream the parity page goes to
}

// stripeRec is a sealed stripe. seq increments on every membership or
// parity change; blocking operations capture a stripeVer first and bail
// when it went stale, so concurrent repairs never mix stripe versions.
type stripeRec struct {
	members []int // data ppis (shrunk members removed)
	parity  int   // parity ppi
	live    int   // members still mapped; 0 drops the stripe
	seq     int
}

// stripeVer is a sealed stripe captured at one version. The zero value
// stands for an open stripe — no record yet, so nothing to outgrow —
// and is never stale.
type stripeVer struct {
	f   *FTL
	sid int
	st  *stripeRec
	seq int
}

func (f *FTL) version(sid int) stripeVer {
	st := f.stripes[sid]
	return stripeVer{f, sid, st, st.seq}
}

// stale reports whether the stripe was dropped, had its slot recycled,
// or changed members or parity since v was taken.
func (v stripeVer) stale() bool {
	return v.st != nil && (v.f.stripes[v.sid] != v.st || v.st.seq != v.seq)
}

// xorInto folds src into the first len(src) bytes of dst.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst[:len(src)], dst, src)
}

// fold XORs pages into a fresh page that starts as seed (zeroes when
// nil) and charges the firmware CPU for every page folded, the seed
// included. Nil pages — reads that failed — are skipped and not
// charged. The result is allocated, never a shared scratch page: every
// caller carries it across a blocking call (a program copies its
// argument only after its bus and array sleeps; a reconstruction hands
// it to its reader), and under the cooperative scheduler the next
// process to fold would alias it.
func (f *FTL) fold(p *sim.Proc, seed []byte, pages [][]byte) []byte {
	acc := make([]byte, f.PageSize())
	n := 0
	if seed != nil {
		copy(acc, seed)
		n++
	}
	for _, pg := range pages {
		if pg != nil {
			xorInto(acc, pg)
			n++
		}
	}
	f.fw.Exec(p, xorCyclesPerByte*float64(len(acc))*float64(n))
	return acc
}

func (f *FTL) channelOf(ppi int) int { return f.ppa(ppi).Channel }

// mappedPpi reports whether the physical page currently backs a logical
// page.
func (f *FTL) mappedPpi(ppi int) bool {
	die, block, pg := f.decode(ppi)
	return f.dies[die].blockMeta[block].lpns[pg] >= 0
}

// countLive counts the members still backing a logical page.
func (f *FTL) countLive(members []int) int {
	live := 0
	for _, m := range members {
		if f.mappedPpi(m) {
			live++
		}
	}
	return live
}

// markParity claims ppi's metadata slot as a live parity page.
func (f *FTL) markParity(ppi int) {
	die, block, pg := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	bm.lpns[pg] = parityMark
	bm.valid++
}

// clearParity releases a parity page's metadata slot (the physical
// bytes become garbage for GC).
func (f *FTL) clearParity(ppi int) {
	die, block, pg := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	if bm.lpns[pg] == parityMark {
		bm.lpns[pg] = -1
		bm.valid--
	}
}

// writeParity programs buf as the parity page of members, on a channel
// none of them occupies: the avoid mask has one bit per member channel
// (nand.Config.Validate caps Channels at its 64).
func (f *FTL) writeParity(p *sim.Proc, buf []byte, members []int, stream int) (int, error) {
	var avoid uint64
	for _, m := range members {
		avoid |= 1 << f.channelOf(m)
	}
	return f.writePage(p, buf, avoid, stream)
}

// setParity points the stripe at its freshly programmed parity page,
// releasing the page it replaces (none at seal), and bumps the version:
// the one place a parity page changes hands.
func (f *FTL) setParity(sid int, st *stripeRec, parity int) {
	if st.parity >= 0 {
		delete(f.parityOf, st.parity)
		f.clearParity(st.parity)
	}
	st.parity = parity
	st.seq++
	f.parityOf[parity] = sid
	f.markParity(parity)
	f.rain.ParityWrites++
}

// detach removes the stream's open stripe from the frontier and parks
// it on the sealing list (which shields its members' blocks from erase
// until the parity lands). Callers must seal the returned stripe.
func (f *FTL) detach(stream int) *openStripe {
	st := f.cur[stream]
	if st == nil {
		return nil
	}
	f.cur[stream] = nil
	f.sealing = append(f.sealing, st)
	return st
}

func (f *FTL) unseal(st *openStripe) {
	for i, s := range f.sealing {
		if s == st {
			f.sealing = append(f.sealing[:i], f.sealing[i+1:]...)
			return
		}
	}
}

// newSid hands out a stripe id, recycling freed slots.
func (f *FTL) newSid() int {
	if n := len(f.freeSid); n > 0 {
		sid := f.freeSid[n-1]
		f.freeSid = f.freeSid[:n-1]
		return sid
	}
	f.stripes = append(f.stripes, nil)
	return len(f.stripes) - 1
}

// stripeAdd XOR-accumulates a freshly mapped data page into the open
// stripe, sealing it when full or when the page's channel collides
// with an existing member (a stripe never holds two pages one die
// failure could take out together). All open-stripe bookkeeping
// happens before the first blocking call, so concurrent writers each
// observe a consistent accumulator.
func (f *FTL) stripeAdd(p *sim.Proc, ppi int, page []byte, stream int) {
	if f.stripeW == 0 {
		return
	}
	var collided *openStripe
	ch := f.channelOf(ppi)
	cur := f.cur[stream]
	if cur != nil && cur.chans>>ch&1 != 0 {
		collided = f.detach(stream)
		cur = nil
	}
	if cur == nil {
		cur = &openStripe{buf: make([]byte, f.PageSize()), stream: stream}
		f.cur[stream] = cur
	}
	xorInto(cur.buf, page)
	cur.members = append(cur.members, ppi)
	cur.chans |= 1 << ch
	var full *openStripe
	if len(cur.members) >= f.stripeW {
		full = f.detach(stream)
	}
	// Blocking parts only from here on.
	f.fw.Exec(p, xorCyclesPerByte*float64(len(page)))
	if collided != nil {
		f.seal(p, collided)
	}
	if full != nil {
		f.seal(p, full)
	}
}

// SealStripe closes every stream's open stripe early, if any. Callers
// flushing a write batch (the filesystem on Sync) use it so freshly
// loaded data is parity-protected without waiting for the frontier to
// fill the stripe's remaining slots.
func (f *FTL) SealStripe(p *sim.Proc) {
	for stream := 0; stream < numStreams; stream++ {
		if st := f.detach(stream); st != nil {
			f.seal(p, st)
		}
	}
}

// seal closes a detached stripe: it writes the parity page to a
// channel none of the members occupy and publishes the stripe record
// so reads, GC and scrub can reconstruct through it. A stripe whose
// members all died while open is discarded without a parity write.
func (f *FTL) seal(p *sim.Proc, st *openStripe) {
	defer f.unseal(st)
	if f.countLive(st.members) == 0 {
		return
	}
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.seal").Arg("members", int64(len(st.members)))
	f.fw.Exec(p, fwWriteCycles)
	parity, err := f.writeParity(p, st.buf, st.members, st.stream)
	sp.End()
	if err != nil {
		// The members stay unprotected — reads fall back to the retry
		// ladder alone — and the accumulator is abandoned.
		f.rain.ParityFails++
		f.ctrs.Add("ftl.rain.parityfail", 1)
		f.tr.Instant(f.fwTk, "rain.parityfail")
		return
	}
	f.rain.StripeSeals++
	f.ctrs.Add("ftl.rain.seal", 1)
	// Liveness is recomputed after the blocking program: members
	// invalidated while the parity was in flight must not inflate it.
	rec := &stripeRec{members: st.members, parity: -1, live: f.countLive(st.members)}
	sid := f.newSid()
	f.stripes[sid] = rec
	for _, m := range st.members {
		f.memberOf[m] = sid
	}
	f.setParity(sid, rec, parity)
	if rec.live == 0 {
		f.dropStripe(sid)
	}
}

// dropStripe releases a stripe whose last live member died: the stale
// members stop being tracked (their blocks become freely erasable) and
// the parity page becomes garbage.
func (f *FTL) dropStripe(sid int) {
	st := f.stripes[sid]
	for _, m := range st.members {
		delete(f.memberOf, m)
	}
	delete(f.parityOf, st.parity)
	f.clearParity(st.parity)
	st.seq++
	f.stripes[sid] = nil
	f.freeSid = append(f.freeSid, sid)
	f.rain.StripeDrops++
	f.ctrs.Add("ftl.rain.drop", 1)
}

// openStripeIn returns the unsealed stripe — on the write frontier or
// parked with its parity in flight — holding a member in the physical
// page range [lo, hi), if any.
func (f *FTL) openStripeIn(lo, hi int) *openStripe {
	has := func(st *openStripe) bool {
		if st == nil {
			return false
		}
		for _, m := range st.members {
			if lo <= m && m < hi {
				return true
			}
		}
		return false
	}
	for _, st := range f.cur {
		if has(st) {
			return st
		}
	}
	for _, st := range f.sealing {
		if has(st) {
			return st
		}
	}
	return nil
}

// openStripeOf returns the unsealed stripe holding data page ppi, if
// any.
func (f *FTL) openStripeOf(ppi int) *openStripe { return f.openStripeIn(ppi, ppi+1) }

// blockHasOpenMember reports whether the block holds a member of a
// stripe that has not sealed yet. Such a block must not be erased: the
// parity that will cover the member has not landed, so its bytes are
// the only copy.
func (f *FTL) blockHasOpenMember(die, block int) bool {
	lo := f.encode(die, block, 0)
	return f.openStripeIn(lo, lo+f.arr.Config().PagesPerBlock) != nil
}

// readStripePages reads the given physical pages in parallel (one
// spawned reader per page, fanning across channels). A page whose read
// failed comes back nil; err is the first such failure in srcs order.
func (f *FTL) readStripePages(p *sim.Proc, srcs []int) ([][]byte, error) {
	ps := f.PageSize()
	pages := make([][]byte, len(srcs))
	errs := make([]error, len(srcs))
	done := sim.NewCompletion(f.env, len(srcs))
	for i, src := range srcs {
		f.env.Spawn("ftl-rain", func(rp *sim.Proc) {
			pages[i] = make([]byte, ps)
			if errs[i] = f.readRetry(rp, f.ppa(src), 0, pages[i]); errs[i] != nil {
				pages[i] = nil
			}
			done.Done(nil)
		})
	}
	done.Wait(p)
	for _, e := range errs {
		if e != nil {
			return pages, e
		}
	}
	return pages, nil
}

// reconstruct rebuilds the full contents of data page ppi from the
// surviving members of its stripe plus parity: W parallel NAND reads
// across the other channels and one XOR pass on the firmware CPU.
//
// A member of a stripe that has not sealed yet has no parity page, but
// the controller holds the open stripe's running XOR in RAM, so a page
// lost before its parity lands is still recoverable: the accumulator
// stands in for the parity, folded with the other members read back
// from media at full cost. The accumulator and member list are
// snapshotted before the sibling reads block — stripeAdd may grow both
// while the reads are in flight, and the snapshot pair stays
// self-consistent.
func (f *FTL) reconstruct(p *sim.Proc, ppi int) ([]byte, error) {
	var v stripeVer
	var members, parity []int
	var seed []byte
	if sid, ok := f.memberOf[ppi]; ok {
		v = f.version(sid)
		members, parity = v.st.members, []int{v.st.parity}
	} else if open := f.openStripeOf(ppi); open != nil {
		members, seed = open.members, bytes.Clone(open.buf)
	} else {
		// An unstriped page is a benign miss (RAIN never covered it), not
		// a protection failure: counted apart so the health monitor does
		// not escalate on it.
		f.rain.ReconstructUnstriped++
		f.ctrs.Add("ftl.rain.unstriped", 1)
		return nil, fmt.Errorf("ftl: page %v is not striped", f.ppa(ppi))
	}
	srcs := make([]int, 0, len(members))
	for _, m := range members {
		if m != ppi {
			srcs = append(srcs, m)
		}
	}
	srcs = append(srcs, parity...)
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.reconstruct").Arg("reads", int64(len(srcs)))
	start := p.Now()
	// A failed sibling read is a second lost page: beyond single-parity
	// protection.
	pages, err := f.readStripePages(p, srcs)
	if err == nil && v.stale() {
		// The stripe shrank or dropped while the sibling reads were in
		// flight; the XOR below would mix stripe versions.
		err = errors.New("stripe changed during reconstruction")
	}
	if err != nil {
		sp.End()
		f.rain.ReconstructFails++
		f.ctrs.Add("ftl.rain.reconstructfail", 1)
		f.tr.Instant(f.fwTk, "rain.reconstructfail")
		return nil, fmt.Errorf("ftl: reconstruct %v: %w", f.ppa(ppi), err)
	}
	out := f.fold(p, seed, pages)
	sp.End()
	f.rain.Reconstructs++
	f.ctrs.Add("ftl.rain.reconstruct", 1)
	f.hists.Observe("ftl.rain.reconstruct", int64(p.Now()-start))
	f.arr.Injector().Record(fault.Reconstruct, "ftl.rain "+f.ppa(ppi).String())
	return out, nil
}

// shrinkMembers removes the given stale members from stripe sid in one
// step: the narrower parity is recomputed as the XOR of the remaining
// members, whose bytes are all still on media. Batching matters — a GC
// victim holding several stale members of one stripe costs one parity
// rewrite, not one per member. It reports whether the members no
// longer block their blocks' erase.
func (f *FTL) shrinkMembers(p *sim.Proc, sid int, drop []int) bool {
	v := f.version(sid)
	rest := make([]int, 0, len(v.st.members))
	for _, m := range v.st.members {
		if !slices.Contains(drop, m) {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		// Every member stale: nothing left worth protecting.
		f.dropStripe(sid)
		return true
	}
	sp := f.tr.BeginAsync(f.rainTk, "ftl.rain.shrink").Arg("reads", int64(len(rest)))
	pages, err := f.readStripePages(p, rest)
	if err != nil {
		sp.End()
		return false // a remaining member is unreadable: cannot narrow safely
	}
	if v.stale() {
		sp.End()
		return true // repaired or dropped concurrently; re-examine later
	}
	parity, err := f.writeParity(p, f.fold(p, nil, pages), rest, gcStream)
	sp.End()
	if err != nil {
		return false
	}
	if v.stale() {
		return true // the fresh page is unmapped garbage; GC erases it later
	}
	v.st.members = rest
	for _, m := range drop {
		delete(f.memberOf, m)
	}
	f.setParity(sid, v.st, parity)
	f.rain.StripeShrinks++
	f.ctrs.Add("ftl.rain.shrink", 1)
	return true
}

// relocateParity moves a stripe's parity page off a GC victim block:
// read it (or rebuild it from the members if unreadable), program a
// copy on a channel no member occupies, and swap the stripe's record
// over. It reports whether the parity no longer blocks the erase.
func (f *FTL) relocateParity(p *sim.Proc, src int) bool {
	sid, ok := f.parityOf[src]
	if !ok {
		return true // cleared concurrently
	}
	v := f.version(sid)
	data := make([]byte, f.PageSize())
	err := f.readRetry(p, f.ppa(src), 0, data)
	if err != nil && errors.Is(err, fault.ErrUncorrectable) {
		data, err = f.rebuildParity(p, v)
	}
	if err != nil {
		return false
	}
	if v.stale() {
		return true
	}
	dst, err := f.writeParity(p, data, v.st.members, gcStream)
	if err != nil {
		return false
	}
	if v.stale() || v.st.parity != src {
		return true // superseded while programming; the copy is garbage
	}
	f.setParity(sid, v.st, dst)
	return true
}

// rebuildParity recomputes a stripe's parity as the XOR of its members
// (all of which must be readable).
func (f *FTL) rebuildParity(p *sim.Proc, v stripeVer) ([]byte, error) {
	pages, err := f.readStripePages(p, v.st.members)
	if err != nil {
		return nil, err
	}
	if v.stale() {
		return nil, errors.New("stripe changed during parity rebuild")
	}
	return f.fold(p, nil, pages), nil
}

// releaseStaleMembers unpins the GC victim block from every stripe
// holding a stale member on it. Per stripe the cheaper route wins:
// shrinking rewrites one parity page per stale member, compaction
// rewrites one data page per live member (and drops the stripe,
// freeing its parity too) — so a mostly-dead stripe is compacted and a
// mostly-live one is shrunk. It reports whether the block ended free
// of stripe pins.
func (f *FTL) releaseStaleMembers(p *sim.Proc, dieIdx, victim int) bool {
	nc := f.arr.Config()
	for pg := 0; pg < nc.PagesPerBlock; pg++ {
		ppi := f.encode(dieIdx, victim, pg)
		sid, member := f.memberOf[ppi]
		if !member {
			continue // never striped, or its stripe dropped/shrank already
		}
		st := f.stripes[sid]
		var staleHere []int
		for _, m := range st.members {
			if d, b, _ := f.decode(m); d == dieIdx && b == victim && !f.mappedPpi(m) {
				staleHere = append(staleHere, m)
			}
		}
		if st.live <= len(staleHere) {
			if !f.compactStripe(p, sid, st) {
				return false
			}
		} else if !f.shrinkMembers(p, sid, staleHere) {
			return false
		}
	}
	return true
}

// compactStripe relocates every live member of the stripe onto the
// frontier (re-striping them with current data); the stripe drops when
// its last member invalidates, releasing the parity page and every
// stale-member pin. It reports whether all live members moved.
func (f *FTL) compactStripe(p *sim.Proc, sid int, st *stripeRec) bool {
	members := append([]int(nil), st.members...)
	for _, m := range members {
		if f.stripes[sid] != st {
			return true // dropped mid-compaction: goal reached
		}
		if f.mappedPpi(m) && !f.moveData(p, m) {
			return false
		}
	}
	return true
}

// compactStripes compacts the stripe with the fewest live members (the
// most space pinned per byte protected). It reports whether any
// candidate existed — GC's fallback when no block is reclaimable.
func (f *FTL) compactStripes(p *sim.Proc) bool {
	best, bestLive := -1, 0
	for sid, st := range f.stripes {
		if st == nil || st.live == 0 || st.live >= len(st.members) {
			continue
		}
		if best < 0 || st.live < bestLive {
			best, bestLive = sid, st.live
		}
	}
	if best < 0 {
		return false
	}
	return f.compactStripe(p, best, f.stripes[best])
}

// compactAged compacts every stripe that has lost at least half its
// members (live <= ceil(members/2)): relocating the live members costs
// live*(1+1/W) programs but releases one parity page plus every
// stale-member pin, and — just as important — caps the steady-state
// parity overhead near 1/W instead of letting half-dead stripes pay a
// full parity page for one or two live members. Run at the start of
// each collection, it keeps stripe aging from silently eating the
// spare. Compaction consumes frontier pages before it frees anything,
// so it stops as soon as the free-block reserve reaches floor — the
// caller's victim loop reclaims space the direct way first.
func (f *FTL) compactAged(p *sim.Proc, floor int) {
	var cands []int
	for sid, st := range f.stripes {
		if st != nil && st.live > 0 && 2*st.live <= len(st.members)+1 {
			cands = append(cands, sid)
		}
	}
	for _, sid := range cands {
		if len(f.freeSB) <= floor {
			return
		}
		st := f.stripes[sid]
		// The slot may have dropped or been recycled for a fresh stripe
		// while an earlier compaction blocked; re-qualify it.
		if st == nil || st.live == 0 || 2*st.live > len(st.members)+1 {
			continue
		}
		f.compactStripe(p, sid, st)
	}
}

// blockStripePinned reports whether any page of the block is still a
// tracked stripe member. An erase would destroy bytes some parity
// still XORs over, so a pinned block must never be erased — this is
// the final gate after relocation and shrinking, closing the race
// where a concurrent scrub repair invalidates a shrink mid-flight.
func (f *FTL) blockStripePinned(die, block int) bool {
	nc := f.arr.Config()
	for pg := 0; pg < nc.PagesPerBlock; pg++ {
		if _, ok := f.memberOf[f.encode(die, block, pg)]; ok {
			return true
		}
	}
	return false
}

// ScrubStep examines one stripe — the patrol that turns latent sector
// errors into repairs before a second failure makes them
// unrecoverable. It reads every member and the parity in parallel;
// with no read failures it verifies the XOR relation (rewriting an
// inconsistent parity), with exactly one failure it repairs the lost
// page (reconstructed member rewritten and remapped, damaged parity
// recomputed, damaged stale member shrunk out), and with more it can
// only count the stripe lost. Successive calls walk the whole stripe
// population via a cursor. It reports whether a stripe was examined.
func (f *FTL) ScrubStep(p *sim.Proc) bool {
	if f.stripeW == 0 {
		return false
	}
	sid := -1
	for i, n := 0, len(f.stripes); i < n; i++ {
		c := (f.scrubCur + i) % n
		if f.stripes[c] != nil {
			sid = c
			break
		}
	}
	if sid < 0 {
		return false
	}
	f.scrubCur = (sid + 1) % len(f.stripes)
	v := f.version(sid)
	srcs := append(append([]int(nil), v.st.members...), v.st.parity)
	sp := f.tr.BeginAsync(f.rainTk, "ftl.scrub").Arg("pages", int64(len(srcs)))
	defer sp.End()
	pages, _ := f.readStripePages(p, srcs) // failures are counted per page (nil) below
	f.rain.ScrubStripes++
	f.ctrs.Add("ftl.scrub.stripes", 1)
	f.gScrub.Set(f.rain.ScrubStripes)
	if v.stale() {
		return true // mutated while reading; the next pass re-checks it
	}
	members := pages[:len(pages)-1]
	failed, bad := 0, -1
	for i, pg := range pages {
		if pg == nil {
			failed, bad = failed+1, i
		}
	}
	switch failed {
	case 0:
		// All pages readable: verify parity == XOR(members). The fold
		// over members and parity together must cancel to zero.
		for _, b := range f.fold(p, nil, pages) {
			if b != 0 {
				if !v.stale() {
					f.rewriteParity(p, v, members)
				}
				break
			}
		}
	case 1:
		if srcs[bad] == v.st.parity {
			f.rewriteParity(p, v, members)
		} else {
			f.repairMember(p, v, srcs[bad], pages)
		}
	default:
		f.rain.ScrubLost++
		f.ctrs.Add("ftl.scrub.lost", 1)
		f.tr.Instant(f.fwTk, "scrub.lost")
	}
	return true
}

// repairMember heals the single unreadable member ppi, the one nil
// entry of pages: its content is the XOR of every other stripe page. A
// live member is rewritten to a fresh page and remapped; a stale one is
// shrunk out.
func (f *FTL) repairMember(p *sim.Proc, v stripeVer, ppi int, pages [][]byte) {
	content := f.fold(p, nil, pages)
	if v.stale() {
		return
	}
	die, block, pg := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	lpn := bm.lpns[pg]
	if lpn < 0 {
		f.shrinkMembers(p, v.sid, []int{ppi})
		return
	}
	dst, err := f.writePage(p, content, 0, gcStream)
	if err != nil {
		return
	}
	if bm.lpns[pg] != lpn || f.l2p[lpn] != ppi {
		return // moved while repairing; the fresh copy becomes garbage
	}
	f.invalidate(ppi)
	f.remap(lpn, dst)
	f.rain.ScrubRepairs++
	f.ctrs.Add("ftl.scrub.repairs", 1)
	f.arr.Injector().Record(fault.ScrubRepair, "ftl.scrub "+f.ppa(ppi).String())
	f.stripeAdd(p, dst, content, gcStream)
}

// rewriteParity replaces a stripe's parity with the XOR of the member
// pages just read (scrub's repair for a damaged or inconsistent
// parity page).
func (f *FTL) rewriteParity(p *sim.Proc, v stripeVer, members [][]byte) {
	acc := f.fold(p, nil, members)
	if v.stale() {
		return
	}
	dst, err := f.writeParity(p, acc, v.st.members, gcStream)
	if err != nil || v.stale() {
		return
	}
	old := v.st.parity
	f.setParity(v.sid, v.st, dst)
	f.rain.ScrubParityFixes++
	f.ctrs.Add("ftl.scrub.parityfix", 1)
	f.arr.Injector().Record(fault.ScrubRepair, "ftl.scrub parity "+f.ppa(old).String())
}
