// Package nand models the SSD's NAND flash array: a grid of channels and
// ways (dies) with page-granular reads/programs, block-granular erases,
// realistic command timings, and per-channel shared buses.
//
// The model is byte-accurate — programmed data is actually stored and read
// back — while time is accounted on the simulation clock: a die is busy
// for tR/tPROG/tBERS and transfers serialize on the channel bus at the
// channel rate. Channel-level parallelism (the source of the >3.2 GB/s
// internal bandwidth exploited by Biscuit, paper §V-B) emerges from the
// per-channel bus resources.
package nand

import (
	"fmt"

	"biscuit/internal/fault"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// Config describes array geometry; experiments and tests shrink it.
type Config struct {
	Channels       int // independent channel buses
	WaysPerChannel int // dies per channel
	BlocksPerDie   int
	PagesPerBlock  int
	PageSize       int // bytes
}

// The paper device's media timings (Table I). 16 channels × 270 MB/s ≈
// 4.3 GB/s of internal bandwidth, >30 % above the 3.2 GB/s host link.
const (
	readLatency    sim.Time = 55 * sim.Microsecond  // tR: array -> page register
	programLatency sim.Time = 600 * sim.Microsecond // tPROG
	eraseLatency   sim.Time = 3 * sim.Millisecond   // tBERS
	channelBW      float64  = 270e6                 // channel bus rate, bytes/s
	channelCmdCost sim.Time = sim.Microsecond       // bus occupancy per command (cmd/addr cycles)
)

// DefaultConfig mirrors the paper's enterprise NVMe SSD (Table I).
func DefaultConfig() Config {
	return Config{
		Channels:       16,
		WaysPerChannel: 4,
		BlocksPerDie:   4096,
		PagesPerBlock:  256,
		PageSize:       16 * 1024,
	}
}

// maxChannels is the widest array a uint64 channel mask (the FTL's
// parity-placement constraint) can name.
const maxChannels = 64

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1 || c.WaysPerChannel < 1:
		return fmt.Errorf("nand: need >=1 channel and way, got %d/%d", c.Channels, c.WaysPerChannel)
	case c.BlocksPerDie < 1 || c.PagesPerBlock < 1 || c.PageSize < 1:
		return fmt.Errorf("nand: bad geometry %d blocks × %d pages × %d B", c.BlocksPerDie, c.PagesPerBlock, c.PageSize)
	case c.Channels > maxChannels:
		return fmt.Errorf("nand: %d channels exceed the %d a channel mask holds", c.Channels, maxChannels)
	}
	return nil
}

// Dies returns the total number of dies.
func (c Config) Dies() int { return c.Channels * c.WaysPerChannel }

// PagesPerDie returns pages per die.
func (c Config) PagesPerDie() int { return c.BlocksPerDie * c.PagesPerBlock }

// TotalPages returns the number of physical pages in the array.
func (c Config) TotalPages() int { return c.Dies() * c.PagesPerDie() }

// Capacity returns raw capacity in bytes.
func (c Config) Capacity() int64 { return int64(c.TotalPages()) * int64(c.PageSize) }

// PPA is a physical page address.
type PPA struct {
	Channel, Way, Block, Page int
}

func (a PPA) String() string {
	return fmt.Sprintf("ch%d/w%d/b%d/p%d", a.Channel, a.Way, a.Block, a.Page)
}

// BlockAddr is a physical block address.
type BlockAddr struct {
	Channel, Way, Block int
}

// Block returns the block containing this page.
func (a PPA) BlockAddr() BlockAddr { return BlockAddr{a.Channel, a.Way, a.Block} }

type blockState struct {
	programmed int // pages programmed so far (must be sequential)
	erases     int
}

type die struct {
	busy   *sim.Resource
	blocks []blockState
}

// Array is the NAND flash array.
type Array struct {
	cfg      Config
	env      *sim.Env
	channels []*sim.Resource // bus occupancy, one per channel
	dies     []*die          // [channel*ways + way]
	data     map[uint64][]byte
	latent   map[uint64]bool // pages silently damaged at program time
	inj      *fault.Injector // nil = perfectly reliable media

	zero []byte // what every never-programmed page reads back as

	tr    *trace.Tracer   // nil = tracing disabled
	dieTk []trace.TrackID // per-die trace tracks, nil when tr is nil

	gBusy *stats.Gauge   // dies currently busy (nil = telemetry off)
	gCh   []*stats.Gauge // busy ways per channel, nil when telemetry off

	reads, programs, erases int64
	bytesRead               int64
}

// New builds an array; the configuration must validate.
func New(env *sim.Env, cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Array{cfg: cfg, env: env, data: make(map[uint64][]byte), latent: make(map[uint64]bool), zero: make([]byte, cfg.PageSize)}
	a.channels = make([]*sim.Resource, cfg.Channels)
	for i := range a.channels {
		a.channels[i] = env.NewResource(fmt.Sprintf("nand-ch%d", i), 1)
	}
	a.dies = make([]*die, cfg.Dies())
	for i := range a.dies {
		a.dies[i] = &die{
			busy:   env.NewResource(fmt.Sprintf("nand-die%d", i), 1),
			blocks: make([]blockState, cfg.BlocksPerDie),
		}
	}
	return a
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// SetInjector installs the fault injector consulted on every media
// operation. A nil injector (the default) models perfect media.
func (a *Array) SetInjector(in *fault.Injector) { a.inj = in }

// Injector returns the installed fault injector (possibly nil).
func (a *Array) Injector() *fault.Injector { return a.inj }

// SetTracer installs the tracer receiving per-die operation spans. A
// die is an exclusive resource, so its spans strictly nest and each
// die gets its own synchronous track ("nand/ch3/w1"). A nil tracer
// (the default) disables tracing at zero cost.
func (a *Array) SetTracer(tr *trace.Tracer) {
	a.tr = tr
	if tr == nil {
		a.dieTk = nil
		return
	}
	a.dieTk = make([]trace.TrackID, a.cfg.Dies())
	for ch := 0; ch < a.cfg.Channels; ch++ {
		for w := 0; w < a.cfg.WaysPerChannel; w++ {
			a.dieTk[ch*a.cfg.WaysPerChannel+w] = tr.Track(fmt.Sprintf("nand/ch%d/w%d", ch, w))
		}
	}
}

// SetGauges installs the telemetry gauges: "nand.busy_dies" counts dies
// holding their busy resource (the array's instantaneous parallelism)
// and "nand.ch<i>.busy" counts busy ways per channel. Nil disables.
func (a *Array) SetGauges(g *stats.Gauges) {
	if g == nil {
		a.gBusy, a.gCh = nil, nil
		return
	}
	a.gBusy = g.G("nand.busy_dies")
	a.gCh = make([]*stats.Gauge, a.cfg.Channels)
	for ch := range a.gCh {
		a.gCh[ch] = g.G(fmt.Sprintf("nand.ch%d.busy", ch))
	}
}

// busyDelta moves the busy-die gauges when a die on channel ch acquires
// or releases its busy resource.
func (a *Array) busyDelta(ch int, d int64) {
	if a.gCh == nil {
		return
	}
	a.gBusy.Add(d)
	a.gCh[ch].Add(d)
}

// dieTrack returns the trace track of addr's die (0 when untraced; a
// nil tracer ignores it anyway).
func (a *Array) dieTrack(addr PPA) trace.TrackID {
	if a.dieTk == nil {
		return 0
	}
	return a.dieTk[addr.Channel*a.cfg.WaysPerChannel+addr.Way]
}

// ChannelBus exposes channel ch's bus resource (the pattern matcher
// streams through it).
func (a *Array) ChannelBus(ch int) *sim.Resource { return a.channels[ch] }

// Stats reports operation counts since creation.
func (a *Array) Stats() (reads, programs, erases, bytesRead int64) {
	return a.reads, a.programs, a.erases, a.bytesRead
}

func (a *Array) check(addr PPA) {
	c := a.cfg
	if addr.Channel < 0 || addr.Channel >= c.Channels ||
		addr.Way < 0 || addr.Way >= c.WaysPerChannel ||
		addr.Block < 0 || addr.Block >= c.BlocksPerDie ||
		addr.Page < 0 || addr.Page >= c.PagesPerBlock {
		panic(fmt.Sprintf("nand: address out of range: %v", addr))
	}
}

func (a *Array) die(addr PPA) *die {
	return a.dies[addr.Channel*a.cfg.WaysPerChannel+addr.Way]
}

// dieIndex returns the flat die index of addr.
func (a *Array) dieIndex(addr PPA) int {
	return addr.Channel*a.cfg.WaysPerChannel + addr.Way
}

// DieDead reports whether addr's die has failed at the current virtual
// time; the FTL consults it to steer writes away from dead dies.
func (a *Array) DieDead(d int) bool { return a.inj.DieDown(d) }

// dieFail charges the cost of discovering a dead die: the controller
// issues the command cycles on the channel bus and the die never
// answers. The die's busy resource is not touched — a dead die serves
// nobody — and no media state changes.
func (a *Array) dieFail(p *sim.Proc, addr PPA) {
	bus := a.channels[addr.Channel]
	bus.Acquire(p)
	p.Sleep(channelCmdCost)
	bus.Release()
	a.tr.Instant(a.dieTrack(addr), "die.dead")
}

func (a *Array) key(addr PPA) uint64 {
	c := a.cfg
	return uint64(((addr.Channel*c.WaysPerChannel+addr.Way)*c.BlocksPerDie+addr.Block)*c.PagesPerBlock + addr.Page)
}

// Written reports whether the page has been programmed since last erase.
func (a *Array) Written(addr PPA) bool {
	a.check(addr)
	return a.die(addr).blocks[addr.Block].programmed > addr.Page
}

// EraseCount returns how many times the block has been erased.
func (a *Array) EraseCount(b BlockAddr) int {
	a.check(PPA{b.Channel, b.Way, b.Block, 0})
	return a.die(PPA{b.Channel, b.Way, b.Block, 0}).blocks[b.Block].erases
}

// ReadInto senses the page (die busy for tR) and transfers len(dst)
// bytes from offset over the channel bus into dst, the one copy the
// data makes on its way out of the array; never-programmed pages read
// back as zeroes. On an error dst is left untouched.
//
// An injected ECC-correctable error extends the sense phase by the
// plan's correction latency; an uncorrectable error still pays the full
// command timing (the controller only learns the ECC verdict after the
// transfer) and returns fault.ErrUncorrectable. Stored bytes are never
// altered, so a retry or a remapped copy observes the true data.
func (a *Array) ReadInto(p *sim.Proc, addr PPA, offset int, dst []byte) error {
	view, err := a.read(p, "nand.read", addr, offset, len(dst), 0)
	if err == nil {
		copy(dst, view)
	}
	return err
}

// Read is ReadInto a fresh buffer of length bytes.
func (a *Array) Read(p *sim.Proc, addr PPA, offset, length int) ([]byte, error) {
	buf := make([]byte, length)
	if err := a.ReadInto(p, addr, offset, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadThrough is Read on the matcher datapath: instead of returning the
// bytes over the bus to a buffer, it hands them to sink as they stream
// across the channel. It is the primitive underneath the per-channel
// hardware pattern matcher: data flows through the IP at channel rate
// (§IV-A). ipOverhead, charged per command on the bus, models the
// IP-control software overhead that places "Biscuit w/ matcher" below
// raw internal bandwidth in Fig. 7.
// The bytes sink sees are the media's own stored page, not a copy — the
// IP taps the bus, it owns no buffer — so sink must neither write to
// them nor keep them past its return.
// On an injected uncorrectable error the sink is never invoked — the
// matcher IP discards a stream whose ECC check fails — and the error is
// returned for the FTL to retry or recover.
func (a *Array) ReadThrough(p *sim.Proc, addr PPA, offset, length int, ipOverhead sim.Time, sink func([]byte)) error {
	buf, err := a.read(p, "nand.readthrough", addr, offset, length, ipOverhead)
	if err != nil {
		return err
	}
	sink(buf)
	return nil
}

// read is the one page-read command behind ReadInto and ReadThrough. span
// ("nand.<verb>") names the trace span and the fault-plan site, its
// verb the errors; busExtra is the command's additional bus occupancy.
// The result is a capacity-clipped view of the stored page.
func (a *Array) read(p *sim.Proc, span string, addr PPA, offset, length int, busExtra sim.Time) ([]byte, error) {
	verb := span[len("nand."):]
	a.check(addr)
	if offset < 0 || length < 0 || offset+length > a.cfg.PageSize {
		panic(fmt.Sprintf("nand: %s [%d,%d) out of page bounds", verb, offset, offset+length))
	}
	if a.inj.DieDown(a.dieIndex(addr)) {
		a.dieFail(p, addr)
		return nil, fmt.Errorf("nand: %s %v: %w (%w)", verb, addr, fault.ErrDieFail, fault.ErrUncorrectable)
	}
	dec := a.inj.Read(func() string { return span + " " + addr.String() })
	// The die holds the data in its page register until the transfer
	// completes, so it stays busy across both phases; only the bus is
	// freed for other ways the moment the transfer ends.
	d := a.die(addr)
	d.busy.Acquire(p)
	a.busyDelta(addr.Channel, 1)
	sp := a.tr.Begin(a.dieTrack(addr), span).Arg("bytes", int64(length))
	p.Sleep(readLatency)
	if dec.Correctable {
		a.tr.Instant(a.dieTrack(addr), "ecc.correctable")
		p.Sleep(a.inj.Plan().CorrectableLatency)
	}
	bus := a.channels[addr.Channel]
	bus.Acquire(p)
	p.Sleep(channelCmdCost + busExtra + sim.TransferTime(int64(length), channelBW))
	bus.Release()
	sp.End()
	a.busyDelta(addr.Channel, -1)
	d.busy.Release()

	a.reads++
	a.bytesRead += int64(length)
	if dec.Uncorrectable {
		a.tr.Instant(a.dieTrack(addr), "ecc.uncorrectable")
		return nil, fmt.Errorf("nand: %s %v: %w", verb, addr, fault.ErrUncorrectable)
	}
	if a.latent[a.key(addr)] {
		// Latent damage from program time: the end-to-end CRC fails on
		// every read of this physical page until it is erased. Only
		// RAIN reconstruction (or scrub, proactively) can recover it.
		a.tr.Instant(a.dieTrack(addr), "crc.latent")
		return nil, fmt.Errorf("nand: %s %v: latent damage: %w", verb, addr, fault.ErrUncorrectable)
	}
	return a.stored(addr)[offset : offset+length : offset+length], nil
}

// stored returns addr's page on the media, read-only: it never changes
// between Program and Erase, and Erase drops it, never recycles it.
func (a *Array) stored(addr PPA) []byte {
	if page, ok := a.data[a.key(addr)]; ok {
		return page
	}
	return a.zero
}

// Zeroes returns n <= PageSize bytes of the shared zero page, read-only
// like ReadThrough's sink bytes.
func (a *Array) Zeroes(n int) []byte { return a.zero[:n:n] }

// Peek copies page contents without advancing simulated time. It exists
// for modeling host-side caches (e.g. a DB buffer pool): the timing of a
// cache hit is charged by the caller; the bytes still have to come from
// the authoritative store.
func (a *Array) Peek(addr PPA, offset int, dst []byte) {
	a.check(addr)
	if offset < 0 || offset+len(dst) > a.cfg.PageSize {
		panic(fmt.Sprintf("nand: peek [%d,%d) out of page bounds", offset, offset+len(dst)))
	}
	copy(dst, a.stored(addr)[offset:])
}

// Program writes a full page. Pages within a block must be programmed in
// order and only once per erase cycle, as on real NAND.
//
// An injected program failure pays the full command timing and returns
// fault.ErrProgramFail, leaving the page unwritten (reads back zeroes).
// The page still counts as consumed — real NAND cannot re-program a
// failed word line — so the in-order invariant holds and the FTL must
// retire the block frontier and remap elsewhere.
func (a *Array) Program(p *sim.Proc, addr PPA, data []byte) error {
	a.check(addr)
	if len(data) > a.cfg.PageSize {
		panic("nand: program data exceeds page size")
	}
	d := a.die(addr)
	st := &d.blocks[addr.Block]
	if st.programmed != addr.Page {
		panic(fmt.Sprintf("nand: out-of-order program of %v (next programmable page is %d)", addr, st.programmed))
	}
	if a.inj.DieDown(a.dieIndex(addr)) {
		// The dead die consumes no page: the command never reaches the
		// word line, so the block frontier is untouched.
		a.dieFail(p, addr)
		return fmt.Errorf("nand: program %v: %w (%w)", addr, fault.ErrDieFail, fault.ErrProgramFail)
	}
	fail := a.inj.Program(func() string { return "nand.program " + addr.String() })

	d.busy.Acquire(p)
	a.busyDelta(addr.Channel, 1)
	sp := a.tr.Begin(a.dieTrack(addr), "nand.program").Arg("bytes", int64(a.cfg.PageSize))
	bus := a.channels[addr.Channel]
	bus.Acquire(p)
	p.Sleep(channelCmdCost + sim.TransferTime(int64(a.cfg.PageSize), channelBW))
	bus.Release()
	p.Sleep(programLatency)
	sp.End()
	a.busyDelta(addr.Channel, -1)
	d.busy.Release()

	st.programmed++
	if fail {
		return fmt.Errorf("nand: program %v: %w", addr, fault.ErrProgramFail)
	}
	page := make([]byte, a.cfg.PageSize)
	copy(page, data)
	a.data[a.key(addr)] = page
	if a.inj.Silent(func() string { return "nand.program " + addr.String() }) {
		// Latent damage: the program status lies. The stored bytes stay
		// intact (a reconstruction from parity must observe the truth),
		// but every future read fails its end-to-end CRC.
		a.latent[a.key(addr)] = true
		a.tr.Instant(a.dieTrack(addr), "silent.corrupt")
	}
	a.programs++
	return nil
}

// Erase wipes a block, allowing it to be programmed again. An injected
// erase failure pays the full tBERS, leaves the block contents intact
// (still readable for relocation) and returns fault.ErrEraseFail; the
// FTL retires such a block.
func (a *Array) Erase(p *sim.Proc, b BlockAddr) error {
	addr := PPA{b.Channel, b.Way, b.Block, 0}
	a.check(addr)
	if a.inj.DieDown(a.dieIndex(addr)) {
		a.dieFail(p, addr)
		return fmt.Errorf("nand: erase ch%d/w%d/b%d: %w (%w)", b.Channel, b.Way, b.Block, fault.ErrDieFail, fault.ErrEraseFail)
	}
	fail := a.inj.Erase(func() string { return fmt.Sprintf("nand.erase ch%d/w%d/b%d", b.Channel, b.Way, b.Block) })
	d := a.die(addr)
	d.busy.Acquire(p)
	a.busyDelta(addr.Channel, 1)
	sp := a.tr.Begin(a.dieTrack(addr), "nand.erase").Arg("block", int64(b.Block))
	p.Sleep(eraseLatency)
	sp.End()
	a.busyDelta(addr.Channel, -1)
	d.busy.Release()
	st := &d.blocks[b.Block]
	if fail {
		return fmt.Errorf("nand: erase ch%d/w%d/b%d: %w", b.Channel, b.Way, b.Block, fault.ErrEraseFail)
	}
	for pg := 0; pg < st.programmed; pg++ {
		delete(a.data, a.key(PPA{b.Channel, b.Way, b.Block, pg}))
		delete(a.latent, a.key(PPA{b.Channel, b.Way, b.Block, pg}))
	}
	st.programmed = 0
	st.erases++
	a.erases++
	return nil
}
