// Package fibers implements the Biscuit runtime's cooperative
// multithreading (paper §IV-B): each SSDlet instance is assigned a fiber,
// fibers context-switch only at explicit yield points or blocking I/O
// calls, and *applications* — not fibers — are the unit of multi-core
// scheduling, so all fibers of one application run on the same core.
//
// That placement rule is what lets inter-SSDlet ports be plain bounded
// queues with no locking: producers and consumers of such a port can
// never run concurrently.
package fibers

import (
	"fmt"

	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// Runtime owns the device cores available to Biscuit and schedules fiber
// groups onto them.
type Runtime struct {
	env   *sim.Env
	cores []*sim.Resource
	hz    float64
	csw   sim.Time // fiber context-switch cost
	next  int      // round-robin core cursor for group placement

	tr     *trace.Tracer   // nil = tracing disabled
	coreTk []trace.TrackID // one sync track per core, nil when tr is nil
	hists  *stats.Histograms
	// schedHist caches the "fiber.sched" histogram, resolved lazily on
	// the first sample so an untouched registry stays empty. The cache
	// keeps the per-Block recording path to one nil check plus a direct
	// Record — no map lookup, no allocation — and a disabled registry
	// costs only the nil check.
	schedHist *stats.Histogram

	switches int64
}

// Fiber context-switch bookkeeping constants are calibrated in the
// device package; the runtime itself is policy-free.

// Config holds runtime parameters.
type Config struct {
	Cores int      // device cores available to Biscuit (paper: 2)
	Hz    float64  // core clock (paper: 750 MHz)
	CSW   sim.Time // context-switch cost, dominant in Table II's inter-app latency
}

// New creates a fiber runtime over the given number of cores.
func New(env *sim.Env, cfg Config) *Runtime {
	if cfg.Cores < 1 {
		panic("fibers: need at least one core")
	}
	r := &Runtime{env: env, hz: cfg.Hz, csw: cfg.CSW}
	for i := 0; i < cfg.Cores; i++ {
		r.cores = append(r.cores, env.NewResource(fmt.Sprintf("dev-core%d", i), 1))
	}
	return r
}

// Env returns the simulation environment.
func (r *Runtime) Env() *sim.Env { return r.env }

// Cores returns the number of device cores.
func (r *Runtime) Cores() int { return len(r.cores) }

// Switches returns the number of fiber context switches taken so far.
func (r *Runtime) Switches() int64 { return r.switches }

// CoreResource exposes core i's occupancy resource for utilization
// accounting.
func (r *Runtime) CoreResource(i int) *sim.Resource { return r.cores[i] }

// SetTracer installs the tracer receiving fiber run spans. Each core
// is an exclusive resource, so its run spans ("dev/core1") strictly
// nest; a span covers one stretch of core ownership, from dispatch to
// the next Block/Yield or termination. Nil disables.
func (r *Runtime) SetTracer(tr *trace.Tracer) {
	r.tr = tr
	if tr == nil {
		r.coreTk = nil
		return
	}
	r.coreTk = make([]trace.TrackID, len(r.cores))
	for i := range r.cores {
		r.coreTk[i] = tr.Track(fmt.Sprintf("dev/core%d", i))
	}
}

// SetHists installs the registry receiving the fiber scheduling-delay
// distribution ("fiber.sched": ready-to-dispatched wait). Nil disables.
func (r *Runtime) SetHists(h *stats.Histograms) {
	r.hists = h
	r.schedHist = nil
}

// observeSched records one scheduling-delay sample ("fiber.sched").
func (r *Runtime) observeSched(v int64) {
	if r.hists == nil {
		return
	}
	if r.schedHist == nil {
		r.schedHist = r.hists.H("fiber.sched")
	}
	r.schedHist.Record(v)
}

// beginRun opens the run span for one stretch of core ownership; the
// slice is named after the fiber so core timelines read directly.
func (r *Runtime) beginRun(core int, name string) trace.Span {
	if r.tr == nil {
		return trace.Span{}
	}
	return r.tr.Begin(r.coreTk[core], name)
}

// Group is a set of fibers pinned to one core — the runtime image of a
// Biscuit Application.
type Group struct {
	rt   *Runtime
	core *sim.Resource
	id   int
	live int
	idle *sim.Event // fired when live drops to zero
}

// NewGroup creates a fiber group, placing it on the next core round-robin.
func (r *Runtime) NewGroup() *Group {
	g := &Group{rt: r, core: r.cores[r.next], id: r.next}
	r.next = (r.next + 1) % len(r.cores)
	return g
}

// CoreID returns the core index the group is pinned to.
func (g *Group) CoreID() int { return g.id }

// Live returns the number of unfinished fibers in the group.
func (g *Group) Live() int { return g.live }

// Fiber is a cooperatively scheduled thread of execution. While running
// it holds its group's core exclusively; it relinquishes the core only in
// Block or Yield (or on termination), exactly like the paper's
// cooperative model.
type Fiber struct {
	p    *sim.Proc
	g    *Group
	name string
	span trace.Span // open run span while the fiber holds its core
}

// Go starts fn as a new fiber of the group.
func (g *Group) Go(name string, fn func(f *Fiber)) *Fiber {
	f := &Fiber{g: g, name: name}
	g.live++
	f.p = g.rt.env.Spawn(name, func(p *sim.Proc) {
		f.p = p
		f.dispatch()
		defer func() {
			f.span.End()
			g.core.Release()
			g.live--
			if g.live == 0 && g.idle != nil {
				g.idle.Fire()
			}
		}()
		fn(f)
	})
	return f
}

// Proc returns the underlying simulation process.
func (f *Fiber) Proc() *sim.Proc { return f.p }

// Compute charges cycles of work while holding the core.
func (f *Fiber) Compute(cycles float64) {
	if cycles <= 0 {
		return
	}
	f.p.Sleep(sim.Time(cycles / f.g.rt.hz * float64(sim.Second)))
}

// ComputeTime charges a fixed duration of work while holding the core.
func (f *Fiber) ComputeTime(d sim.Time) { f.p.Sleep(d) }

// Block releases the core, runs wait (which may block the underlying
// process), then re-acquires the core and pays the context-switch cost.
// All blocking primitives (ports, file I/O) funnel through here.
func (f *Fiber) Block(wait func(p *sim.Proc)) {
	f.span.End()
	f.g.core.Release()
	wait(f.p)
	f.dispatch()
}

// dispatch waits for the group's core, then runs the fiber on it: the
// wait is a "fiber.sched" sample, the run a span on the core's track,
// and the switch costs csw. A fiber gains its core only here, when it
// starts and after each Block.
func (f *Fiber) dispatch() {
	readyAt := f.p.Now()
	f.g.core.Acquire(f.p)
	f.g.rt.observeSched(int64(f.p.Now() - readyAt))
	f.span = f.g.rt.beginRun(f.g.id, f.name)
	f.p.Sleep(f.g.rt.csw)
	f.g.rt.switches++
}

// Yield voluntarily gives other ready fibers of the core a turn.
func (f *Fiber) Yield() {
	f.Block(func(p *sim.Proc) { p.Yield() })
}

// WaitIdle blocks the (non-fiber) process p until every fiber of the
// group has terminated. Used by Application teardown.
func (g *Group) WaitIdle(p *sim.Proc) {
	if g.live == 0 {
		return
	}
	if g.idle == nil || g.idle.Fired() {
		g.idle = g.rt.env.NewEvent()
	}
	p.Wait(g.idle)
}
