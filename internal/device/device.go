// Package device assembles the simulated evaluation platform of the
// paper (§IV-A, §V-A): a Dell R720-class host (two Xeon sockets, shared
// memory system) attached over PCIe Gen.3 ×4 to an enterprise NVMe SSD
// with 16 NAND channels, two ARM Cortex-R7 cores available to Biscuit,
// device DRAM split into system/user heaps, and a per-channel hardware
// pattern matcher.
//
// The host and device-core calibration lives here as constants; each
// lower layer (nand, hostif, ftl, core) keeps its own beside the code
// that charges it. Config holds only what experiments set to more than
// one value.
package device

import (
	"fmt"
	"io"

	"biscuit/internal/cpu"
	"biscuit/internal/fault"
	"biscuit/internal/fibers"
	"biscuit/internal/ftl"
	"biscuit/internal/hostif"
	"biscuit/internal/match"
	"biscuit/internal/mem"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// Config aggregates the component configurations experiments vary.
type Config struct {
	NAND nand.Config
	FTL  ftl.Config
	Host hostif.Config

	// PatternMatcherOverhead is the per-command software cost of driving
	// the per-channel matcher IP; it puts the matcher's streaming rate
	// between Conv and pure-Biscuit bandwidth in Fig. 7.
	PatternMatcherOverhead sim.Time

	// Device DRAM heap sizes for the two allocators (§IV-B).
	SystemHeap int
	UserHeap   int

	// Fault declares the platform's fault campaign (internal/fault).
	// The zero plan — the default — models perfectly reliable media and
	// interface, matching the paper platform's calibration runs.
	Fault fault.Plan
}

// The host system (paper §V-A: 2× Xeon E5-2640, 24 threads, 64 GiB).
const (
	hostThreads int     = 24
	hostHz      float64 = 2.5e9
	// hostMemBW is the aggregate host memory bandwidth StreamBench-style
	// load contends for (effective copy/scan bandwidth).
	hostMemBW float64 = 24e9
	// memContentionAlpha scales host software slowdown per background
	// load thread: effective cycles = base × (1 + alpha × threads).
	// Calibrated to Table V's grep degradation (12.2 s at 0 threads to
	// 19.9 s at 24, i.e. ~1.63× at 24 threads).
	memContentionAlpha float64 = 0.026
)

// The device cores available to Biscuit (Table I: 2× Cortex-R7 750 MHz).
const (
	devCores int     = 2
	devHz    float64 = 750e6
	// fiberCSW is the fiber context-switch cost; it dominates the
	// inter-application port latency of Table II (10.7 us).
	fiberCSW sim.Time = 8150 * sim.Nanosecond
)

// InternalReadOverhead is the Biscuit-runtime cost added to an
// SSDlet-issued read on top of the firmware path (completion dispatch
// to the fiber); Table III's 75.9 us internal read is
// firmware+NAND+this.
const InternalReadOverhead sim.Time = 1700 * sim.Nanosecond

// DefaultConfig returns the calibrated paper platform. The NAND
// geometry keeps the paper device's channel/way structure (timings are
// nand's constants) but trims blocks-per-die from the full 1 TB of
// nand.DefaultConfig to a 128 GiB working set so a platform's FTL tables
// stay small; capacity beyond an experiment's footprint has no effect
// on timing.
func DefaultConfig() Config {
	nandCfg := nand.DefaultConfig()
	nandCfg.BlocksPerDie = 512
	return Config{
		NAND: nandCfg,
		FTL:  ftl.DefaultConfig(),

		PatternMatcherOverhead: 2500 * sim.Nanosecond,

		SystemHeap: 8 << 20,
		UserHeap:   64 << 20,
	}
}

// Platform is the host + SSD pair every experiment runs on.
type Platform struct {
	Env *sim.Env
	Cfg Config

	// Host side.
	HostCPU *cpu.CPU
	HostMem *sim.SharedBW

	// Device side.
	Array  *nand.Array
	FTL    *ftl.FTL
	HostIF *hostif.Interface
	DevRT  *fibers.Runtime
	DevMem *mem.DeviceMemory

	// Matcher runs the per-channel matcher IPs' automata and remembers
	// their verdicts per stored page (match.Matcher): the device scan and
	// the host planner's sample both judge this array's pages through it.
	// Nil remembers nothing.
	Matcher *match.Matcher

	// Inj is the platform's fault injector; nil when Cfg.Fault is the
	// zero plan. It is shared by the NAND array and the host interface,
	// so one schedule covers the whole device.
	Inj *fault.Injector

	// Ctrs records the query engine's operational events — the db.*
	// family: link pages, scans by path, NDP fallbacks — for the
	// evaluation's counter dumps. RAIN, scrub and rebuild activity is
	// counted once, in FTL.Rain and FTL.Rebuild. Always non-nil.
	Ctrs *stats.Counters

	// Hists records latency distributions ("hostif.read", "ftl.gc.round",
	// "fiber.sched", ...) for the evaluation's percentile outputs.
	// Always non-nil and pre-wired into every component.
	Hists *stats.Histograms

	// Gauges records instantaneous levels (NVMe queue depth, busy dies,
	// GC debt, port occupancy) for the telemetry sampler. Always non-nil
	// and pre-wired into every component; mutations cost an int store
	// until a sampler attaches to the registry.
	Gauges *stats.Gauges

	// Trace is the platform tracer; nil (the default) disables tracing
	// everywhere at zero cost. Install with SetTracer.
	Trace *trace.Tracer

	intTk     trace.TrackID // "dev/internal" track for SSDlet-issued reads
	scrubOn   bool          // patrol-scrub fiber running (StartScrub/StopScrub)
	rebuildOn bool          // rebuild fiber running (StartRebuild/StopRebuild)
}

// New builds a platform in env with the given configuration.
func New(env *sim.Env, cfg Config) *Platform {
	hostCPU, hostMem := NewHost(env)
	return NewShared(env, cfg, hostCPU, hostMem)
}

// NewHost builds the paper's host in env: its CPU and the memory system
// background load contends for. NewShared attaches SSDs to it.
func NewHost(env *sim.Env) (*cpu.CPU, *sim.SharedBW) {
	return cpu.New(env, "host-cpu", hostThreads, hostHz), env.NewSharedBW("host-mem", hostMemBW)
}

// NewShared builds a platform whose SSD attaches to an existing host
// (CPU + memory system) — the Scale-up organization of the paper's
// Fig. 1(b), where one server fronts several SSDs. Each platform still
// gets its own PCIe link, media and device cores.
func NewShared(env *sim.Env, cfg Config, hostCPU *cpu.CPU, hostMem *sim.SharedBW) *Platform {
	p := &Platform{Env: env, Cfg: cfg, Ctrs: stats.NewCounters(), Hists: stats.NewHistograms(), Gauges: stats.NewGauges()}
	p.HostCPU = hostCPU
	p.HostMem = hostMem
	p.Array = nand.New(env, cfg.NAND)
	p.FTL = ftl.New(env, p.Array, cfg.FTL)
	p.Matcher = match.NewMatcher()
	// One firmware-facing core pool handles host commands; Biscuit's two
	// cores are managed by the fiber runtime.
	devCmd := cpu.New(env, "dev-nvme", 1, devHz)
	p.HostIF = hostif.New(env, cfg.Host, p.FTL, p.HostCPU, devCmd)
	if cfg.Fault.Enabled() {
		if err := cfg.Fault.ValidateDies(cfg.NAND.Dies()); err != nil {
			panic(err)
		}
		inj, err := fault.NewInjector(env, cfg.Fault)
		if err != nil {
			panic(err)
		}
		p.Inj = inj
		p.Array.SetInjector(inj)
		p.HostIF.SetInjector(inj)
	}
	p.DevRT = fibers.New(env, fibers.Config{Cores: devCores, Hz: devHz, CSW: fiberCSW})
	p.HostIF.SetHists(p.Hists)
	p.FTL.SetHists(p.Hists)
	p.DevRT.SetHists(p.Hists)
	p.HostIF.SetGauges(p.Gauges)
	p.FTL.SetGauges(p.Gauges)
	p.Array.SetGauges(p.Gauges)
	dm, err := mem.NewDeviceMemory(cfg.SystemHeap, cfg.UserHeap)
	if err != nil {
		panic(err)
	}
	p.DevMem = dm
	return p
}

// WriteStats dumps the registries of platform number n: the counters in
// name order, then the FTL's RAIN, rebuild and map statistics, the
// matcher's page counts and the device heaps' materialized bytes
// against their sizes; then each latency histogram's count and
// percentiles in ns.
func (p *Platform) WriteStats(w io.Writer, n int) {
	fmt.Fprintf(w, "-- platform %d counters\n", n)
	for _, c := range p.Ctrs.Snapshot() {
		fmt.Fprintf(w, "   %-24s %d\n", c.Name, c.Value)
	}
	fmt.Fprintf(w, "   %-24s %+v\n", "ftl.rain", p.FTL.Rain())
	fmt.Fprintf(w, "   %-24s %+v\n", "ftl.rebuild", p.FTL.Rebuild())
	fmt.Fprintf(w, "   %-24s %+v\n", "match.pages", p.Matcher.Stats())
	fmt.Fprintf(w, "   %-24s system=%d/%d user=%d/%d\n", "mem.arenas",
		p.DevMem.System.Materialized(), p.DevMem.System.Size(), p.DevMem.User.Materialized(), p.DevMem.User.Size())
	segsMade, segs, blocksMade, blocks := p.FTL.MapStats()
	fmt.Fprintf(w, "   %-24s l2p=%d/%d rev=%d/%d\n", "ftl.maps", segsMade, segs, blocksMade, blocks)
	fmt.Fprintf(w, "-- platform %d latencies (ns)\n", n)
	for _, h := range p.Hists.Snapshot() {
		fmt.Fprintf(w, "   %-24s count=%-8d p50=%-11d p95=%-11d p99=%-11d max=%d\n",
			h.Name, h.Summary.Count, h.Summary.P50, h.Summary.P95, h.Summary.P99, h.Summary.Max)
	}
}

// SetTracer installs (or, with nil, removes) the tracer on every
// component of the platform, mirroring how the fault injector is
// distributed: NAND dies, FTL GC, the NVMe interface and the fiber
// runtime all emit onto the one tracer, so a single export shows the
// full vertical slice of a request.
func (p *Platform) SetTracer(tr *trace.Tracer) {
	p.Trace = tr
	p.Array.SetTracer(tr)
	p.FTL.SetTracer(tr)
	p.HostIF.SetTracer(tr)
	p.DevRT.SetTracer(tr)
	if tr != nil {
		p.intTk = tr.Track("dev/internal")
	}
}

// InternalRead performs a Biscuit-internal read (no host interface): the
// path an SSDlet's File.Read takes. Table III's right column. Media
// errors surface directly — there is no command-level retry inside the
// device, so this path degrades before the conventional one does.
func (p *Platform) InternalRead(proc *sim.Proc, off int64, n int) ([]byte, error) {
	sp := p.Trace.BeginAsync(p.intTk, "internal.read").Arg("off", off).Arg("bytes", int64(n))
	start := proc.Now()
	data, err := p.FTL.ReadRange(proc, off, n)
	proc.Sleep(InternalReadOverhead)
	p.Hists.H("dev.internal.read").Record(int64(proc.Now() - start))
	sp.End()
	return data, err
}

// maintain launches a paced maintenance fiber on the Biscuit runtime
// unless *on says it is already running: block for interval, re-check
// *on, block for one step, until *on is cleared. It is an ordinary fiber
// — it holds a device core only between blocking points, so SSDlet work
// interleaves with it exactly as the paper's cooperative model
// prescribes — and it notices a cleared *on at its next wakeup, at most
// one interval of simulated time later. Clear it before the
// experiment's host program finishes or the environment never drains.
func (p *Platform) maintain(name string, on *bool, interval sim.Time, step func(proc *sim.Proc)) {
	if *on {
		return
	}
	*on = true
	pace := func(proc *sim.Proc) { proc.Sleep(interval) }
	p.DevRT.NewGroup().Go(name, func(fb *fibers.Fiber) {
		for *on {
			fb.Block(pace)
			if !*on {
				return
			}
			fb.Block(step)
		}
	})
}

// scrubEvery paces the patrol scrub: one RAIN stripe per interval.
const scrubEvery = 2 * sim.Millisecond

// StartScrub launches the patrol-scrub fiber: every scrubEvery it
// examines one RAIN stripe, verifying parity and repairing latent damage
// (ftl.ScrubStep).
func (p *Platform) StartScrub() {
	p.maintain("patrol-scrub", &p.scrubOn, scrubEvery, func(proc *sim.Proc) { p.FTL.ScrubStep(proc) })
}

// StopScrub asks the patrol-scrub fiber to exit.
func (p *Platform) StopScrub() { p.scrubOn = false }

// StartRebuild launches the proactive-rebuild fiber: every interval it
// polls the array for dies the fault injector has killed, queues them
// on the FTL's rebuild walker, and performs one unit of rebuild work
// (ftl.RebuildStep — one page re-striped or one parity relocated).
// The interval is the rebuild-rate knob: one page per interval bounds
// how hard the rebuild competes with foreground traffic for channels
// and frontier space.
func (p *Platform) StartRebuild(interval sim.Time) {
	p.maintain("rain-rebuild", &p.rebuildOn, interval, func(proc *sim.Proc) {
		for d := 0; d < p.Cfg.NAND.Dies(); d++ {
			if p.Array.DieDead(d) {
				p.FTL.RebuildDie(d)
			}
		}
		p.FTL.RebuildStep(proc)
	})
}

// StopRebuild asks the rebuild fiber to exit.
func (p *Platform) StopRebuild() { p.rebuildOn = false }

// SetHostLoad sets the number of StreamBench-style background threads
// contending for host memory bandwidth (paper §V-C; 0 removes the load).
// Each thread is a permanent processor-sharing claimant on HostMem, not
// a simulated process: the same contention without flooding the event
// queue. Only host-side paths touch HostMem, which is why Conv degrades
// under Tables IV and V's 0–24-thread sweep while Biscuit stays flat.
// Platforms built on one NewHost share HostMem, so on a scale-up array
// one call loads every drive's host path.
func (p *Platform) SetHostLoad(threads int) { p.HostMem.SetLoad(threads) }

// HostLoad returns the current number of background load threads.
func (p *Platform) HostLoad() int { return p.HostMem.Load() }

// LoadFactor is the memory-contention slowdown of host software under
// the current background load: 1 + alpha × threads.
func (p *Platform) LoadFactor() float64 {
	return 1 + memContentionAlpha*float64(p.HostMem.Load())
}

// HostScan models host software scanning n bytes in host memory: one
// hardware thread is held for the whole scan, whose duration is the
// slower of the CPU cost (cyclesPerByte) and the bytes' trip through the
// contended memory system. This is the load-sensitive half of Conv in
// Tables IV and V: background StreamBench shares shrink the memory term.
func (p *Platform) HostScan(proc *sim.Proc, n int64, cyclesPerByte float64) {
	p.HostCPU.Acquire(proc)
	start := proc.Now()
	p.HostMem.Transfer(proc, n)
	elapsed := proc.Now() - start
	cpuT := p.HostCPU.Time(float64(n) * cyclesPerByte * p.LoadFactor())
	if cpuT > elapsed {
		proc.Sleep(cpuT - elapsed)
	}
	p.HostCPU.Release()
}
