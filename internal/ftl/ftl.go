// Package ftl implements the SSD's flash translation layer: a page-mapped
// logical-to-physical table, log-structured writes striped across all
// dies, greedy garbage collection, and trim.
//
// Both the host I/O path and Biscuit's internal (NDP) reads go through
// this same FTL, mirroring the paper's observation (§VI) that Biscuit
// "adds no complications to handling I/O and managing media": the
// underlying firmware keeps doing wear leveling and garbage collection
// regardless of who issues the request.
package ftl

import (
	"errors"
	"fmt"
	"slices"

	"biscuit/internal/cpu"
	"biscuit/internal/fault"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// Config holds the FTL's one tuning parameter. Everything else the
// firmware model is calibrated with is a package constant below: no
// caller ever set those to anything but their defaults.
type Config struct {
	// StripeDataPages is the RAIN stripe width W: every W data pages the
	// frontier lays down on W distinct channels are closed with one XOR
	// parity page on yet another channel, so any single lost page — or a
	// whole dead die — is rebuilt from the surviving W pages. 0 selects
	// the default (Channels-1 on multi-channel arrays); -1 disables
	// RAIN. Widths above Channels-1 are clamped: a stripe never puts two
	// pages on one channel.
	StripeDataPages int
}

// DefaultConfig returns the zero Config: the default stripe width.
func DefaultConfig() Config { return Config{} }

// Firmware calibration, matching an enterprise drive: 7 % OP and a
// firmware read path of a few microseconds per page. The float64 types
// keep every derived product rounded exactly as a run-time value is.
const (
	// overProvision is the fraction of raw capacity held back from the
	// logical space (spare blocks for GC).
	overProvision float64 = 0.07
	// gcLowWater triggers garbage collection when the free-superblock
	// pool drops to it; gcHighWater is the refill target.
	gcLowWater, gcHighWater = 2, 4
	// fwReadCycles / fwWriteCycles are the firmware CPU cost per page
	// command (lookup, command issue, completion).
	fwReadCycles  float64 = 2250 // 3us at 750 MHz
	fwWriteCycles float64 = 3750 // 5us
	// fwThreads is the number of firmware cores dedicated to the I/O
	// path (separate from the two cores Biscuit may use).
	fwThreads         = 4
	fwHz      float64 = 750e6

	// maxReadRetries is how many times an uncorrectable page read is
	// reissued (with adjusted read-reference voltages on real NAND)
	// before the error is surfaced. Each retry costs retryLatency on
	// top of the repeated media timing.
	maxReadRetries = 2
	retryLatency   = 20 * sim.Microsecond
	// maxProgramRetries bounds how many sibling blocks a failed program
	// is remapped to (each failure retires the failing block) before the
	// write errors out.
	maxProgramRetries = 3

	// xorCyclesPerByte is the firmware CPU cost of XOR-folding one byte
	// during parity accumulation, reconstruction and scrub verification:
	// 8 bytes/cycle, a vectorized XOR loop.
	xorCyclesPerByte float64 = 0.125
)

// Write streams. Host writes and GC/repair relocations go to separate
// open blocks (and separate RAIN stripes): mixing them flattens the
// block liveness distribution — relocated pages are colder than host
// pages, and a block holding both never becomes a cheap GC victim.
// With the streams split, host blocks decay into mostly-stale victims
// while relocation blocks stay dense and are rarely collected.
const (
	hostStream = iota
	gcStream
	numStreams
)

type dieState struct {
	open      [numStreams]int // this die's slice of the stream's open superblock, -1 if exhausted
	nextPage  [numStreams]int
	blockMeta []blockMeta
	// wlock serializes allocate+program per die so that pages are
	// programmed in exactly allocation order (NAND requires in-order
	// programming within a block) even with concurrent writers or GC.
	wlock *sim.Resource
}

type blockMeta struct {
	valid int   // number of valid pages
	lpns  []int // reverse map page -> lpn (-1 invalid)
	bad   bool  // retired after a program/erase failure; never reused
}

// FTL is a page-mapped flash translation layer over a NAND array.
type FTL struct {
	env      *sim.Env
	arr      *nand.Array
	fw       *cpu.CPU
	dies     []*dieState
	l2p      []int        // lpn -> physical page index, -1 unmapped
	lost     map[int]bool // lpns whose data is gone (unreadable + unreconstructable)
	nLPN     int
	dieOrder []int           // channel-major write rotation (consecutive writes hit distinct channels)
	wrDie    [numStreams]int // per-stream cursor into dieOrder
	// The erase/allocation unit is the superblock: block index b on
	// every die at once. Stripes are laid within one superblock, so a
	// stripe's members, its stale members and (usually) its parity die
	// together when the superblock is erased — GC never pays to narrow
	// parity around bytes the erase is about to destroy anyway.
	freeSB []int         // free superblock indexes (LIFO)
	sbFree []bool        // sbFree[b]: superblock b is on the free list
	gcProc *sim.Proc     // process running collection; its writes skip the GC gate
	gcGate *sim.Resource // serializes collection; writers out of space queue here

	// RAIN state. stripes is indexed by stripe id; freed slots are nil
	// and recycled through freeSid, so iteration order is deterministic.
	stripeW  int                     // data pages per stripe; 0 = RAIN disabled
	cur      [numStreams]*openStripe // per-stream stripe accumulating the frontier
	sealing  []*openStripe           // detached stripes whose parity is in flight
	stripes  []*stripeRec
	freeSid  []int
	memberOf map[int]int // data ppi -> stripe id (set at seal)
	parityOf map[int]int // parity ppi -> stripe id
	scrubCur int         // patrol-scrub cursor into stripes

	// Proactive-rebuild state (rebuild.go): dies queued for background
	// re-striping after a die-failure signal, plus the block-major page
	// cursor into the die currently being drained.
	rebuildQ    []int        // dies awaiting rebuild, FIFO
	rebuildSeen map[int]bool // dies ever enqueued (dedupe; a die fails once)
	rebuildCur  int          // die being rebuilt, -1 when idle
	rebuildPos  int          // next page offset within rebuildCur's address space

	tr     *trace.Tracer // nil = tracing disabled
	gcTk   trace.TrackID // GC rounds (serialized by gcGate, so spans nest)
	fwTk   trace.TrackID // firmware fault-handling instants (retries, remaps)
	rainTk trace.TrackID // RAIN seal/reconstruct/scrub spans (async: they overlap)
	hists  *stats.Histograms
	ctrs   *stats.Counters // platform mirror of RAIN/scrub counters

	gFreeSB       *stats.Gauge // free superblocks (nil = telemetry off)
	gGCDebt       *stats.Gauge // superblocks below the GC refill target
	gScrub        *stats.Gauge // stripes patrolled by scrub (cumulative)
	gRebuildLeft  *stats.Gauge // dead-die pages not yet examined by the rebuild walker
	gRebuildPages *stats.Gauge // cumulative pages re-striped by rebuild

	gcMoves  int64
	gcRounds int64
	reads    int64
	writes   int64

	readRetries  int64 // reissued page reads after uncorrectable errors
	readErrors   int64 // reads that stayed uncorrectable after retries
	programFails int64 // program failures remapped to another block
	gcRecovers   int64 // GC relocations recovered through parity reconstruction
	badBlocks    int64 // blocks retired for program/erase failures

	rain    RainStats    // reported by Rain
	rebuild RebuildStats // reported by Rebuild
}

// New builds an FTL over arr.
func New(env *sim.Env, arr *nand.Array, cfg Config) *FTL {
	nc := arr.Config()
	f := &FTL{
		env:         env,
		arr:         arr,
		fw:          cpu.New(env, "fw-cpu", fwThreads, fwHz),
		gcGate:      env.NewResource("ftl-gc", 1),
		lost:        make(map[int]bool),
		rebuildSeen: make(map[int]bool),
		memberOf:    make(map[int]int),
		parityOf:    make(map[int]int),
	}
	f.rebuildCur = -1
	w := cfg.StripeDataPages
	if w == 0 || w > nc.Channels-1 {
		w = nc.Channels - 1
	}
	w = max(w, 0) // RAIN needs a parity channel distinct from every member
	f.stripeW = w
	f.dies = make([]*dieState, nc.Dies())
	for i := range f.dies {
		d := &dieState{
			open:      [numStreams]int{-1, -1},
			blockMeta: make([]blockMeta, nc.BlocksPerDie),
			wlock:     env.NewResource(fmt.Sprintf("ftl-wlock%d", i), 1),
		}
		for b := range d.blockMeta {
			d.blockMeta[b].lpns = slices.Repeat([]int{-1}, nc.PagesPerBlock)
		}
		f.dies[i] = d
	}
	f.sbFree = make([]bool, nc.BlocksPerDie)
	for b := nc.BlocksPerDie - 1; b >= 0; b-- {
		f.freeSB = append(f.freeSB, b)
		f.sbFree[b] = true
	}
	// Consecutive writes rotate channel-major so a stripe's pages land
	// on distinct channels (and sequential reads fan across buses).
	for way := 0; way < nc.WaysPerChannel; way++ {
		for ch := 0; ch < nc.Channels; ch++ {
			f.dieOrder = append(f.dieOrder, ch*nc.WaysPerChannel+way)
		}
	}
	// The exported capacity is raw space minus OP, minus the frontier
	// and GC working reserve (the open superblock of each write stream,
	// the low-water pool, and one in-flight victim), minus one parity
	// page per W data pages when RAIN is on. GC relocation re-stripes
	// every page it moves (≈1/W extra programs per move), so full-device
	// occupancy must still leave greedy superblock victims cheap enough
	// to recycle — the second OP tranche buys that margin.
	logical := float64(nc.TotalPages()) * (1 - overProvision)
	reserve := (numStreams + gcLowWater + 1) * nc.Dies() * nc.PagesPerBlock
	logical -= float64(reserve)
	if w > 0 {
		logical = logical * float64(w) / float64(w+1) * (1 - overProvision)
	}
	if logical < float64(nc.Dies()*nc.PagesPerBlock) {
		panic("ftl: configuration leaves no logical capacity (raise BlocksPerDie or lower reserves)")
	}
	f.nLPN = int(logical)
	f.l2p = slices.Repeat([]int{-1}, f.nLPN)
	return f
}

// Env returns the simulation environment the FTL runs in.
func (f *FTL) Env() *sim.Env { return f.env }

// SetTracer installs the tracer receiving GC-round spans ("ftl/gc")
// and fault-handling instants ("ftl/fw"). Nil disables.
func (f *FTL) SetTracer(tr *trace.Tracer) {
	f.tr = tr
	if tr != nil {
		f.gcTk = tr.Track("ftl/gc")
		f.fwTk = tr.Track("ftl/fw")
		f.rainTk = tr.Track("ftl/rain")
	}
}

// SetCounters mirrors RAIN, scrub and recovery activity onto the
// platform counter registry so -stats dumps include it. Nil disables.
func (f *FTL) SetCounters(c *stats.Counters) { f.ctrs = c }

// SetHists installs the registry receiving the GC-round duration
// distribution ("ftl.gc.round"). Nil disables.
func (f *FTL) SetHists(h *stats.Histograms) { f.hists = h }

// SetGauges installs the telemetry gauges: "ftl.free_sb" tracks the
// free-superblock pool, "ftl.gc.debt" how far the pool sits below the
// GC refill target (0 when healthy — the pressure that triggers
// collection), "ftl.scrub.stripes" the cumulative patrol-scrub
// progress, "ftl.rebuild.pending" the dead-die pages the proactive
// rebuild has not yet examined, and "ftl.rebuild.pages" the cumulative
// pages it has re-striped. Nil disables.
func (f *FTL) SetGauges(g *stats.Gauges) {
	f.gFreeSB = g.G("ftl.free_sb")
	f.gGCDebt = g.G("ftl.gc.debt")
	f.gScrub = g.G("ftl.scrub.stripes")
	f.gRebuildLeft = g.G("ftl.rebuild.pending")
	f.gRebuildPages = g.G("ftl.rebuild.pages")
	f.sbGauges()
}

// sbGauges refreshes the free-pool gauges after freeSB changes.
func (f *FTL) sbGauges() {
	if f.gFreeSB == nil {
		return
	}
	free := int64(len(f.freeSB))
	f.gFreeSB.Set(free)
	f.gGCDebt.Set(max(int64(gcHighWater)-free, 0))
}

// PageSize returns the logical (== physical) page size in bytes.
func (f *FTL) PageSize() int { return f.arr.Config().PageSize }

// NumPages returns the exported logical capacity in pages.
func (f *FTL) NumPages() int { return f.nLPN }

// Capacity returns the exported logical capacity in bytes.
func (f *FTL) Capacity() int64 { return int64(f.nLPN) * int64(f.PageSize()) }

// Array returns the underlying NAND array.
func (f *FTL) Array() *nand.Array { return f.arr }

// GCStats reports garbage-collection activity.
func (f *FTL) GCStats() (rounds, pageMoves int64) { return f.gcRounds, f.gcMoves }

// IOStats reports page-level read/write counts.
func (f *FTL) IOStats() (reads, writes int64) { return f.reads, f.writes }

// FaultStats reports fault-handling activity: read retries issued,
// reads left uncorrectable after retry, program failures remapped, and
// GC relocations that needed reconstruction.
func (f *FTL) FaultStats() (readRetries, readErrors, programFails, gcRecovers int64) {
	return f.readRetries, f.readErrors, f.programFails, f.gcRecovers
}

// BadBlocks reports how many blocks have been retired.
func (f *FTL) BadBlocks() int64 { return f.badBlocks }

// RainStats is a snapshot of the RAIN subsystem's activity.
type RainStats struct {
	StripeSeals          int64 // stripes closed with a parity page
	StripeDrops          int64 // stripes released after their last live member died
	StripeShrinks        int64 // stale members removed (parity narrowed) before erase
	ParityWrites         int64 // parity page programs (seals + relocations + rewrites)
	ParityFails          int64 // parity programs that failed, leaving members unprotected
	Reconstructs         int64 // pages rebuilt from surviving members + parity
	ReconstructFails     int64 // reconstructions that failed hard (second member lost)
	DegradedReads        int64 // host/NDP reads served through reconstruction
	ReconstructUnstriped int64 // reconstruction requests for pages RAIN never covered (benign)
	ScrubStripes         int64 // stripes examined by the patrol scrub
	ScrubRepairs         int64 // damaged members rewritten by scrub
	ScrubParityFixes     int64 // parity pages rewritten by scrub
	ScrubLost            int64 // stripes found with >1 lost page (beyond single parity)
	LostPages            int64 // logical pages poisoned after unrecoverable double loss
}

// Rain reports RAIN parity, reconstruction and scrub activity.
func (f *FTL) Rain() RainStats { return f.rain }

// StripeWidth returns the number of data pages per RAIN stripe (0 when
// RAIN is disabled, e.g. on single-channel arrays).
func (f *FTL) StripeWidth() int { return f.stripeW }

func (f *FTL) checkLPN(lpn int) {
	if lpn < 0 || lpn >= f.nLPN {
		panic(fmt.Sprintf("ftl: lpn %d out of range [0,%d)", lpn, f.nLPN))
	}
}

// physical index encoding: ((die*blocks)+block)*pages + page
func (f *FTL) encode(die, block, page int) int {
	nc := f.arr.Config()
	return (die*nc.BlocksPerDie+block)*nc.PagesPerBlock + page
}

func (f *FTL) decode(ppi int) (die, block, page int) {
	nc := f.arr.Config()
	page = ppi % nc.PagesPerBlock
	ppi /= nc.PagesPerBlock
	block = ppi % nc.BlocksPerDie
	die = ppi / nc.BlocksPerDie
	return
}

func (f *FTL) ppa(ppi int) nand.PPA {
	die, block, page := f.decode(ppi)
	a := f.blockAddr(die, block)
	return nand.PPA{Channel: a.Channel, Way: a.Way, Block: a.Block, Page: page}
}

// blockAddr names a die's block the way the array addresses it.
func (f *FTL) blockAddr(die, block int) nand.BlockAddr {
	ways := f.arr.Config().WaysPerChannel
	return nand.BlockAddr{Channel: die / ways, Way: die % ways, Block: block}
}

// Mapped reports whether the logical page currently holds data.
func (f *FTL) Mapped(lpn int) bool {
	f.checkLPN(lpn)
	return f.l2p[lpn] >= 0
}

// Read is readInto a fresh buffer of length bytes.
func (f *FTL) Read(p *sim.Proc, lpn, offset, length int) ([]byte, error) {
	buf := make([]byte, length)
	if err := f.readInto(p, lpn, offset, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readInto reads len(dst) bytes at offset within logical page lpn into
// dst. Unmapped pages read back as zeroes. Uncorrectable media errors
// are retried maxReadRetries times, then rebuilt from RAIN parity,
// before being surfaced (wrapped fault.ErrUncorrectable); on an error
// dst is left untouched.
func (f *FTL) readInto(p *sim.Proc, lpn, offset int, dst []byte) error {
	ppi, err := f.lookup(p, lpn)
	if err != nil {
		return err
	}
	if ppi < 0 {
		clear(dst)
		return nil
	}
	return f.readRecover(p, ppi, offset, dst)
}

// lookup is the prologue of every logical-page read: the firmware's
// command cost, the read count and the L2P translation. It returns a
// negative page index for an unmapped page (which reads back as
// zeroes) and an error for one whose data was lost.
func (f *FTL) lookup(p *sim.Proc, lpn int) (int, error) {
	f.checkLPN(lpn)
	f.fw.Exec(p, fwReadCycles)
	f.reads++
	ppi := f.l2p[lpn]
	if ppi < 0 && f.lost[lpn] {
		return ppi, fmt.Errorf("ftl: lpn %d: data lost: %w", lpn, fault.ErrUncorrectable)
	}
	return ppi, nil
}

// readRetry issues the media read into dst with the retry policy: each
// reissue (adjusted read-reference voltages on real NAND) costs
// retryLatency on top of the repeated media timing and rolls the fault
// dice afresh.
func (f *FTL) readRetry(p *sim.Proc, addr nand.PPA, offset int, dst []byte) error {
	var err error
	for try := 0; try <= maxReadRetries; try++ {
		if try > 0 {
			f.readRetries++
			f.tr.Instant(f.fwTk, "read.retry").Arg("try", int64(try))
			p.Sleep(retryLatency)
		}
		err = f.arr.ReadInto(p, addr, offset, dst)
		if err == nil {
			return nil
		}
		if errors.Is(err, fault.ErrDieFail) || !errors.Is(err, fault.ErrUncorrectable) {
			break // a dead die never answers; retrying is pointless
		}
	}
	f.readErrors++
	f.tr.Instant(f.fwTk, "read.error")
	return err
}

// readRecover is the degraded-mode read path into dst: the retry ladder
// first, then RAIN reconstruction from the page's stripe. The original
// media error is surfaced when the page is not striped or the stripe has
// lost a second page.
func (f *FTL) readRecover(p *sim.Proc, ppi, offset int, dst []byte) error {
	err := f.readRetry(p, f.ppa(ppi), offset, dst)
	if err == nil || !errors.Is(err, fault.ErrUncorrectable) {
		return err
	}
	page, rerr := f.reconstruct(p, ppi)
	if rerr != nil {
		return err
	}
	f.rain.DegradedReads++
	f.ctrs.Add("ftl.rain.degraded", 1)
	copy(dst, page[offset:])
	return nil
}

// ReadThrough streams length bytes of the logical page through sink while
// the data crosses the channel bus — the pattern-matcher data path.
// ipOverhead is the per-command hardware-IP control cost. If the matcher
// stream fails ECC, the FTL degrades to the plain (buffered) read path
// with retries and hands the recovered bytes to sink, so a transient
// media error costs latency, never correctness.
func (f *FTL) ReadThrough(p *sim.Proc, lpn, offset, length int, ipOverhead sim.Time, sink func([]byte)) error {
	ppi, err := f.lookup(p, lpn)
	if err != nil {
		return err
	}
	if ppi < 0 {
		sink(f.arr.Zeroes(length))
		return nil
	}
	err = f.arr.ReadThrough(p, f.ppa(ppi), offset, length, ipOverhead, sink)
	if err == nil || !errors.Is(err, fault.ErrUncorrectable) {
		return err
	}
	f.readRetries++
	p.Sleep(retryLatency)
	data := make([]byte, length)
	if err := f.readRecover(p, ppi, offset, data); err != nil {
		return err
	}
	sink(data)
	return nil
}

// streamExhausted reports whether every live die's slice of the
// stream's open superblock is full (or the stream has none open): the
// stream may only then advance to a fresh superblock.
func (f *FTL) streamExhausted(stream int) bool {
	for die, d := range f.dies {
		if d.open[stream] >= 0 && !f.arr.DieDead(die) {
			return false
		}
	}
	return true
}

// openSuperblock pops a free superblock and hands every die its slice
// of it (retired blocks are skipped: the superblock simply has less
// capacity there). Pure bookkeeping; reports false when the pool is
// empty or every constituent block is retired.
func (f *FTL) openSuperblock(stream int) bool {
	for len(f.freeSB) > 0 {
		sb := f.freeSB[len(f.freeSB)-1]
		f.freeSB = f.freeSB[:len(f.freeSB)-1]
		f.sbGauges()
		f.sbFree[sb] = false
		usable := false
		for _, d := range f.dies {
			if d.blockMeta[sb].bad {
				continue
			}
			d.open[stream] = sb
			d.nextPage[stream] = 0
			usable = true
		}
		if usable {
			return true
		}
		// Every slice retired: the superblock is dead capacity, drop it.
	}
	return false
}

// allocate picks the next physical page on die dieIdx's slice of the
// stream's open superblock. It is pure bookkeeping — never blocks —
// and reports ok=false when the slice is exhausted; the caller's
// rotation fills the other dies' slices before the stream advances to
// a fresh superblock.
func (f *FTL) allocate(dieIdx, stream int) (int, bool) {
	d := f.dies[dieIdx]
	if d.open[stream] < 0 {
		// A superblock only advances once every die's slice is full:
		// advancing early would spread one stream over two superblocks
		// and let its stripes span them.
		if !f.streamExhausted(stream) || !f.openSuperblock(stream) {
			return -1, false
		}
		if d.open[stream] < 0 {
			return -1, false // this die's slice is retired; rotation moves on
		}
	}
	ppi := f.encode(dieIdx, d.open[stream], d.nextPage[stream])
	d.nextPage[stream]++
	if d.nextPage[stream] == f.arr.Config().PagesPerBlock {
		d.open[stream] = -1
	}
	return ppi, true
}

// isOpen reports whether the block is any stream's open frontier block.
func (d *dieState) isOpen(block int) bool {
	for _, o := range d.open {
		if o == block {
			return true
		}
	}
	return false
}

// gcNeeded reports whether the stream is about to open a new
// superblock with the free pool at the low-water mark. The collection
// process itself is exempt: its relocation writes consume the very
// reserve the low water protects.
func (f *FTL) gcNeeded(p *sim.Proc, d *dieState, stream int) bool {
	return p != f.gcProc && d.open[stream] < 0 && f.streamExhausted(stream) &&
		len(f.freeSB) <= gcLowWater
}

// gcRefill runs collection for dieIdx. The gate serializes collection
// globally: a writer arriving while GC is in flight queues here instead
// of draining the free blocks the relocations need, and rechecks the
// trigger once the running round finishes. Callers must hold no write
// lock — relocations write through the global rotation and would
// deadlock against a held die.
func (f *FTL) gcRefill(p *sim.Proc, dieIdx, stream int) {
	f.gcGate.Acquire(p)
	if f.gcNeeded(p, f.dies[dieIdx], stream) {
		f.gcProc = p
		f.collect(p)
		f.gcProc = nil
	}
	f.gcGate.Release()
}

// nextWriteDie advances the stream's channel-major rotation to the next
// die that is alive and not on a channel whose bit is set in avoid
// (parity placement). It returns -1 when no die qualifies.
func (f *FTL) nextWriteDie(avoid uint64, stream int) int {
	ways := f.arr.Config().WaysPerChannel
	n := len(f.dieOrder)
	for i := 0; i < n; i++ {
		die := f.dieOrder[(f.wrDie[stream]+i)%n]
		if avoid>>(die/ways)&1 != 0 || f.arr.DieDead(die) {
			continue
		}
		f.wrDie[stream] = (f.wrDie[stream] + i + 1) % n
		return die
	}
	return -1
}

// writePage allocates a frontier page and programs it, rotating across
// channels. A program failure retires the failing block and remaps the
// write to the next allocation (bounded by maxProgramRetries); a dead
// die is skipped by the rotation without consuming a retry. avoid is a
// mask of channels the page must not land on (parity is never placed
// with its members; 0 = unconstrained); it is relaxed when no other
// channel can take the write. The caller maps or records the returned
// ppi before its next blocking call.
func (f *FTL) writePage(p *sim.Proc, page []byte, avoid uint64, stream int) (int, error) {
	fails, full := 0, 0
	var lastErr error
	for {
		dieIdx := f.nextWriteDie(avoid, stream)
		if dieIdx < 0 {
			if avoid != 0 {
				avoid = 0 // every legal channel is dead: relax placement
				continue
			}
			panic("ftl: write: all dies failed")
		}
		d := f.dies[dieIdx]
		d.wlock.Acquire(p)
		if f.gcNeeded(p, d, stream) {
			// Checked under the write lock so concurrent writers cannot
			// drain the free list past the low-water reserve unnoticed.
			d.wlock.Release()
			f.gcRefill(p, dieIdx, stream)
			d.wlock.Acquire(p)
		}
		ppi, ok := f.allocate(dieIdx, stream)
		if !ok {
			d.wlock.Release()
			full++
			if full >= len(f.dies) {
				if avoid != 0 {
					// Every die on the allowed channels is full. Relax the
					// placement rather than fail: a parity page sharing a
					// member's channel still protects against page loss,
					// just not against that one channel dying.
					avoid = 0
					full = 0
					continue
				}
				panic("ftl: out of space (no free blocks after GC)")
			}
			continue
		}
		full = 0
		err := f.arr.Program(p, f.ppa(ppi), page)
		d.wlock.Release()
		if err == nil {
			return ppi, nil
		}
		if errors.Is(err, fault.ErrDieFail) {
			continue // the rotation skips this die from now on
		}
		if !errors.Is(err, fault.ErrProgramFail) {
			return -1, err
		}
		f.programFails++
		lastErr = err
		_, block, _ := f.decode(ppi)
		f.tr.Instant(f.fwTk, "program.remap").Arg("die", int64(dieIdx)).Arg("block", int64(block))
		f.retire(dieIdx, block)
		fails++
		if fails >= maxProgramRetries {
			return -1, fmt.Errorf("ftl: %d program attempts failed: %w", maxProgramRetries, lastErr)
		}
	}
}

// invalidate marks the physical page stale and updates its stripe's
// liveness; a stripe whose last live member dies is dropped, releasing
// its parity page. Parity pages (and already-stale pages) are ignored.
func (f *FTL) invalidate(ppi int) {
	die, block, page := f.decode(ppi)
	bm := &f.dies[die].blockMeta[block]
	if bm.lpns[page] < 0 {
		return
	}
	bm.lpns[page] = -1
	bm.valid--
	if sid, ok := f.memberOf[ppi]; ok {
		st := f.stripes[sid]
		st.live--
		if st.live <= 0 {
			f.dropStripe(sid)
		}
	}
}

// Write stores data (at most one page) at logical page lpn. Partial
// writes read-modify-write the page, as a page-mapped FTL must. A
// program failure retires the failing block and remaps the write to a
// sibling block, transparently up to maxProgramRetries times; only then
// does the error surface. The old mapping is invalidated after the new
// copy lands, so a failed write never loses the previous contents.
func (f *FTL) Write(p *sim.Proc, lpn int, offset int, data []byte) error {
	f.checkLPN(lpn)
	ps := f.PageSize()
	if offset < 0 || offset+len(data) > ps {
		panic(fmt.Sprintf("ftl: write [%d,%d) out of page bounds", offset, offset+len(data)))
	}
	f.fw.Exec(p, fwWriteCycles)
	f.writes++

	page := make([]byte, ps)
	if old := f.l2p[lpn]; old >= 0 && (offset != 0 || len(data) != ps) {
		if err := f.readRecover(p, old, 0, page); err != nil {
			return fmt.Errorf("ftl: rmw read of lpn %d: %w", lpn, err)
		}
	}
	copy(page[offset:], data)

	ppi, err := f.writePage(p, page, 0, hostStream)
	if err != nil {
		return fmt.Errorf("ftl: write lpn %d: %w", lpn, err)
	}
	// Re-read the mapping: GC may have relocated the old copy while the
	// program was in flight.
	if old := f.l2p[lpn]; old >= 0 {
		f.invalidate(old)
	}
	delete(f.lost, lpn) // fresh contents supersede a poisoned page
	f.remap(lpn, ppi)
	f.stripeAdd(p, ppi, page, hostStream)
	return nil
}

// remap claims the freshly programmed page dst for lpn: its blockMeta
// slot records the reverse mapping and l2p points at it. The caller has
// already invalidated the previous copy, if any.
func (f *FTL) remap(lpn, dst int) {
	die, block, pg := f.decode(dst)
	bm := &f.dies[die].blockMeta[block]
	bm.lpns[pg] = lpn
	bm.valid++
	f.l2p[lpn] = dst
}

// retire marks a block bad: it is closed as the write frontier and
// excluded from reuse forever. Its earlier valid pages stay readable
// until GC relocates them.
func (f *FTL) retire(dieIdx, block int) {
	d := f.dies[dieIdx]
	bm := &d.blockMeta[block]
	if !bm.bad {
		bm.bad = true
		f.badBlocks++
	}
	for s := range d.open {
		if d.open[s] == block {
			d.open[s] = -1
		}
	}
}

// Trim discards the logical page's contents (used by file deletion).
func (f *FTL) Trim(lpn int) {
	f.checkLPN(lpn)
	delete(f.lost, lpn)
	if old := f.l2p[lpn]; old >= 0 {
		f.invalidate(old)
		f.l2p[lpn] = -1
	}
}

// sbOpen reports whether superblock sb is some stream's open frontier
// on any die.
func (f *FTL) sbOpen(sb int) bool {
	for _, d := range f.dies {
		if d.isOpen(sb) {
			return true
		}
	}
	return false
}

// mappedPages counts logical pages currently backed by media.
func (f *FTL) mappedPages() int {
	n := 0
	for _, ppi := range f.l2p {
		if ppi >= 0 {
			n++
		}
	}
	return n
}

// collect refills the free-superblock pool using greedy victim
// selection: the superblock (same block index on every die) with the
// fewest valid pages goes first. Because stripes are laid within one
// superblock, relocating its live data drops their stripes — members,
// stale members and parity go stale together — and the constituent
// blocks erase with no parity narrowing in the common case; the
// shrink/compact machinery only runs for the rare stripe that leaked
// across a superblock boundary (a seal racing the frontier advance).
// Relocation reads that exhaust their retries are rebuilt from RAIN
// parity — there is no recovery outside the stripes. A victim that
// cannot be fully drained is skipped for this collection; retired
// blocks with valid pages remain eligible as victims but are never
// erased or reused.
//
// The refill target adapts to occupancy: it never exceeds what the
// live data (plus its parity overhead) physically leaves free, so a
// nearly full device collects to a modest reserve instead of grinding
// every superblock through relocation chasing an unreachable mark.
func (f *FTL) collect(p *sim.Proc) {
	nc := f.arr.Config()
	sbPages := len(f.dies) * nc.PagesPerBlock
	content := f.mappedPages()
	if f.stripeW > 0 {
		content += content / f.stripeW // parity rides along
	}
	achievable := nc.BlocksPerDie - numStreams - 1 - (content+sbPages-1)/sbPages
	target := min(gcHighWater, achievable)
	target = max(target, gcLowWater+1)
	skipped := map[int]bool{}
	// Aging compaction consumes frontier pages before it frees anything,
	// so it only runs while the pool can absorb a victim relocation.
	floor := gcLowWater + 1
	for len(f.freeSB) < target {
		// Half-dead stripes waste a parity page each; while there is
		// headroom above the floor, compact them to keep parity overhead
		// near 1/W.
		f.compactAged(p, floor)
		victim, bestValid := -1, -1
		for sb := 0; sb < nc.BlocksPerDie; sb++ {
			if skipped[sb] || f.sbFree[sb] || f.sbOpen(sb) {
				continue
			}
			valid, reclaimable := 0, false
			for _, d := range f.dies {
				bm := &d.blockMeta[sb]
				valid += bm.valid
				if !bm.bad || bm.valid > 0 {
					reclaimable = true
				}
			}
			if !reclaimable {
				continue // fully retired and drained: nothing to reclaim
			}
			if bestValid < 0 || valid < bestValid {
				victim, bestValid = sb, valid
			}
		}
		if victim < 0 {
			// Nothing directly reclaimable. Aged stripes may be the
			// reason: compact the deadest one — its pins become garbage —
			// then retry the scan.
			if f.compactStripes(p) {
				continue
			}
			return // nothing reclaimable
		}
		f.gcRounds++
		roundStart := p.Now()
		sp := f.tr.Begin(f.gcTk, "ftl.gc").Arg("sb", int64(victim)).Arg("valid", int64(bestValid))
		moved := int64(0)
		ok := true
		// Pass 1: relocate live data. Moving a stripe's last live member
		// drops the stripe, so this pass turns most of the superblock's
		// parity pages into garbage as a side effect.
		for dieIdx, d := range f.dies {
			bm := &d.blockMeta[victim]
			for pg := 0; pg < nc.PagesPerBlock; pg++ {
				if bm.lpns[pg] < 0 {
					continue
				}
				if f.moveData(p, f.encode(dieIdx, victim, pg)) {
					moved++
				} else {
					ok = false
				}
			}
		}
		// Pass 2: parity still alive here protects live members outside
		// this superblock (a stripe that crossed the frontier boundary);
		// move it off the erase path.
		for dieIdx, d := range f.dies {
			bm := &d.blockMeta[victim]
			for pg := 0; pg < nc.PagesPerBlock; pg++ {
				if bm.lpns[pg] == parityMark {
					if !f.relocateParity(p, f.encode(dieIdx, victim, pg)) {
						ok = false
					}
				}
			}
		}
		// Pass 3: stale members of cross-boundary stripes — their parity
		// must stop depending on bytes the erase destroys.
		for dieIdx := range f.dies {
			if !ok {
				break
			}
			if !f.releaseStaleMembers(p, dieIdx, victim) {
				ok = false
			}
		}
		// Final gates, re-checked after all the blocking relocations:
		// every constituent block must be drained and unpinned before
		// any of them is erased.
		for dieIdx, d := range f.dies {
			if !ok {
				break
			}
			bm := &d.blockMeta[victim]
			if bm.valid > 0 || f.blockHasOpenMember(dieIdx, victim) || f.blockStripePinned(dieIdx, victim) {
				ok = false
			}
		}
		if !ok {
			skipped[victim] = true
		} else {
			// Erase the constituent blocks in parallel — they sit on
			// distinct dies. A block whose erase fails is retired; the
			// superblock returns to the pool with less capacity.
			done := sim.NewCompletion(f.env, len(f.dies))
			for dieIdx, d := range f.dies {
				if d.blockMeta[victim].bad {
					done.Done(nil)
					continue
				}
				f.env.Spawn("ftl-gc-erase", func(ep *sim.Proc) {
					if err := f.arr.Erase(ep, f.blockAddr(dieIdx, victim)); err != nil {
						f.retire(dieIdx, victim)
					}
					done.Done(nil)
				})
			}
			done.Wait(p)
			f.freeSB = append(f.freeSB, victim)
			f.sbGauges()
			f.sbFree[victim] = true
		}
		sp.Arg("moves", moved).End()
		f.hists.Observe("ftl.gc.round", int64(p.Now()-roundStart))
	}
}

// moveData relocates the live data page at src to a fresh frontier
// page, rebuilding its contents from parity when the relocation read
// exhausts its retries. It reports whether the page is off its block
// (false only when the bytes are currently unreadable and
// unreconstructable).
func (f *FTL) moveData(p *sim.Proc, src int) bool {
	die, block, pg := f.decode(src)
	bm := &f.dies[die].blockMeta[block]
	lpn := bm.lpns[pg]
	if lpn < 0 {
		return true // went stale before we got to it
	}
	data := make([]byte, f.PageSize())
	err := f.readRetry(p, f.ppa(src), 0, data)
	if err != nil {
		if !errors.Is(err, fault.ErrUncorrectable) {
			return false
		}
		data, err = f.reconstruct(p, src)
		if err != nil {
			// Unreadable and beyond parity's reach: the data is gone.
			// Poison the logical page — host reads surface
			// ErrUncorrectable until it is rewritten — rather than pin
			// the only (broken) copy against the erase forever.
			if bm.lpns[pg] != lpn || f.l2p[lpn] != src {
				return true // superseded while we tried; nothing lost
			}
			f.invalidate(src)
			f.l2p[lpn] = -1
			f.lost[lpn] = true
			f.rain.LostPages++
			f.ctrs.Add("ftl.rain.lost", 1)
			f.tr.Instant(f.fwTk, "gc.dataloss").Arg("lpn", int64(lpn))
			return true
		}
		f.gcRecovers++
		f.tr.Instant(f.gcTk, "gc.recover")
		f.arr.Injector().Record(fault.GCRecover, "ftl.gc "+f.ppa(src).String())
	}
	if bm.lpns[pg] != lpn {
		return true // overwritten or trimmed while reading: nothing to move
	}
	dst, err := f.writePage(p, data, 0, gcStream)
	if err != nil {
		return false
	}
	if bm.lpns[pg] != lpn {
		return true // overwritten while programming: the fresh copy is garbage
	}
	f.invalidate(src)
	f.remap(lpn, dst)
	f.gcMoves++
	f.stripeAdd(p, dst, data, gcStream)
	return true
}

// isFree reports whether this die's block would be reused by a future
// superblock open: its superblock is pooled and the block itself is
// not retired.
func (f *FTL) isFree(d *dieState, block int) bool {
	return f.sbFree[block] && !d.blockMeta[block].bad
}

// MaxErase returns the highest per-block erase count (wear-leveling
// indicator).
func (f *FTL) MaxErase() int {
	nc := f.arr.Config()
	maxE := 0
	for die := 0; die < nc.Dies(); die++ {
		for b := 0; b < nc.BlocksPerDie; b++ {
			if e := f.arr.EraseCount(f.blockAddr(die, b)); e > maxE {
				maxE = e
			}
		}
	}
	return maxE
}
