// Package health is the array's sim-time device-health monitor: it
// watches each device's live gauge/counter stack — RAIN degraded reads,
// hard reconstruction failures, lost pages, GC debt, host-interface
// queue depth — and classifies the device Healthy → Degraded →
// Critical with hysteresis. The monitor consumes the registries'
// existing pre-mutation OnChange hooks (the same mechanism the
// telemetry sampler rides), so it costs zero simulation events and its
// transitions are schedule-invariant: evaluation happens on a fixed
// sim-time tick grid, backfilled lazily from whatever mutation crosses
// a tick boundary, exactly like telemetry.Sampler.
//
// Transitions are the monitor's only output surface: a deterministic
// log (Transitions, Signature), a health/<device> trace track, and an
// OnTransition callback the serving layer uses to trigger rebuild and
// tenant migration. State never changes except through evaluate() —
// the healthstate biscuitvet analyzer enforces that callers outside
// this package (tests and failure drills aside) do not call Force.
package health

import (
	"fmt"

	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// State is a device's health classification.
type State int

const (
	Healthy State = iota
	Degraded
	Critical
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The classifier's thresholds, tuned for the serving experiments: a
// hard failure escalates to Critical on the next tick, a dead die, a
// burst of degraded reads or GC pressure reaches Degraded, and a device
// must stay quiet for clearTicks before it recovers a level.
const (
	// interval is the evaluation tick; every probe is scored once per
	// tick (lazily, on the first mutation past the boundary).
	interval sim.Time = 500 * sim.Microsecond
	// degradedScore / criticalScore are the per-tick score thresholds.
	// The score blends level signals (GC debt, queue depth) with the
	// tick's deltas of the failure counters; see score().
	degradedScore, criticalScore int64 = 4, 100
	// clearTicks is the hysteresis: a device de-escalates one level only
	// after this many consecutive ticks scoring zero. Escalation is
	// immediate.
	clearTicks int = 20
)

// Probe is one device's signal bundle. Gauges and Ctrs are the
// device's own registries (the monitor chains onto Gauges.OnChange);
// DeadDies, when non-nil, reports how many dies the fault injector has
// killed — the strongest signal, weighted straight to Critical.
type Probe struct {
	Gauges   *stats.Gauges
	Ctrs     *stats.Counters
	DeadDies func() int
}

// Transition is one recorded health-state change.
type Transition struct {
	Dev   int      // device index (Attach order)
	Name  string   // device name given to Attach
	At    sim.Time // tick boundary the change was evaluated at
	From  State
	To    State
	Score int64 // the tick score that caused it
}

type devState struct {
	name  string
	probe Probe
	state State
	clean int // consecutive zero-score ticks (hysteresis)
	// Counter left edges for per-tick deltas.
	lastFails, lastLost, lastDegraded int64
	tk                                trace.TrackID
}

// Monitor classifies attached devices on a shared sim-time tick grid.
type Monitor struct {
	env  *sim.Env
	devs []*devState
	log  []Transition

	ticks     int64 // ticks evaluated so far (all devices share the grid)
	inAdvance bool  // re-entrancy guard: our own bookkeeping may touch gauges

	tr      *trace.Tracer
	onTrans func(dev int, from, to State)
}

// NewMonitor builds a monitor in env.
func NewMonitor(env *sim.Env) *Monitor { return &Monitor{env: env} }

// SetTracer installs the tracer receiving health-transition instants on
// per-device "health/<name>" tracks. Nil disables.
func (m *Monitor) SetTracer(tr *trace.Tracer) {
	m.tr = tr
	for _, d := range m.devs {
		if tr != nil {
			d.tk = tr.Track("health/" + d.name)
		}
	}
}

// OnTransition installs fn to run after every recorded state change
// (inside the mutation that crossed the tick boundary — fn must be
// pure bookkeeping or event firing, like a sim.After callback).
func (m *Monitor) OnTransition(fn func(dev int, from, to State)) { m.onTrans = fn }

// Attach registers a device's probe under name and returns its device
// index. The monitor chains an OnChange hook onto the probe's gauge
// registry; the first gauge mutation past each tick boundary triggers
// evaluation of every attached device, keeping the tick grid shared
// and the transition order deterministic (device index order).
func (m *Monitor) Attach(name string, p Probe) int {
	d := &devState{name: name, probe: p}
	if m.tr != nil {
		d.tk = m.tr.Track("health/" + name)
	}
	m.devs = append(m.devs, d)
	idx := len(m.devs) - 1
	p.Gauges.OnChange(m.advance)
	return idx
}

// State reports the device's current classification.
func (m *Monitor) State(dev int) State { return m.devs[dev].state }

// Transitions returns the recorded state changes in evaluation order.
func (m *Monitor) Transitions() []Transition { return m.log }

// Signature is a stats.Digest of the transition log, one record per
// transition — the determinism witness the 3-seed matrix test compares
// across runs.
func (m *Monitor) Signature() uint64 {
	var d stats.Digest
	for _, t := range m.log {
		d.AddRecord(fmt.Sprintf("%d:%s:%d:%d>%d:%d", t.Dev, t.Name, int64(t.At), t.From, t.To, t.Score))
	}
	return d.Sum64()
}

// Advance brings the tick grid up to the current sim time. The serving
// layer calls it at the end of a window so trailing ticks (after the
// last gauge mutation) are still evaluated.
func (m *Monitor) Advance() { m.advance() }

// advance backfills evaluation ticks sampler-style: while the next
// tick boundary is at or before now, score every device at that
// boundary. Gauge levels are read live — between mutations they are
// constant, so the value observed equals the left limit at every
// backfilled boundary — and counter deltas accumulate per tick. The
// guard makes the hook re-entrant: scoring fires no gauge mutations
// itself, but OnTransition callbacks may.
func (m *Monitor) advance() {
	if m.inAdvance || len(m.devs) == 0 {
		return
	}
	m.inAdvance = true
	now := m.env.Now()
	for (m.ticks+1)*int64(interval) <= int64(now) {
		m.ticks++
		at := sim.Time(m.ticks * int64(interval))
		for i, d := range m.devs {
			m.evaluate(i, d, at)
		}
	}
	m.inAdvance = false
}

// score computes the device's per-tick badness. A dead die keeps the
// device pinned at least at Degraded (the media is permanently
// short a die, rebuilt or not); hard failure deltas — reconstructions
// that hit a second lost member, pages lost for good — weigh straight
// past criticalScore; degraded-read deltas and sustained GC debt /
// queue depth accumulate toward degradedScore. Benign unstriped
// reconstruction misses ("ftl.rain.unstriped") are deliberately not
// consulted — see the ReconstructFails split in internal/ftl.
func (m *Monitor) score(d *devState) int64 {
	var s int64
	if d.probe.DeadDies != nil && d.probe.DeadDies() > 0 {
		s += degradedScore
	}
	if c := d.probe.Ctrs; c != nil {
		fails := c.Get("ftl.rain.reconstructfail")
		lost := c.Get("ftl.rain.lost")
		degraded := c.Get("ftl.rain.degraded")
		s += (fails - d.lastFails) * criticalScore
		s += (lost - d.lastLost) * criticalScore
		s += (degraded - d.lastDegraded) * 2
		d.lastFails, d.lastLost, d.lastDegraded = fails, lost, degraded
	}
	if g := d.probe.Gauges; g != nil {
		s += g.Get("ftl.gc.debt")
		if qd := g.Get("hostif.qd"); qd > 8 {
			s += qd - 8
		}
	}
	return s
}

// evaluate scores device i at tick boundary at, escalating immediately
// on a threshold crossing and de-escalating one level after clearTicks
// consecutive zero-score ticks.
func (m *Monitor) evaluate(i int, d *devState, at sim.Time) {
	s := m.score(d)
	target := d.state
	switch {
	case s >= criticalScore:
		target = Critical
	case s >= degradedScore && target < Degraded:
		target = Degraded
	}
	if target > d.state {
		d.clean = 0
		m.transition(i, d, at, target, s)
		return
	}
	if s > 0 {
		d.clean = 0
		return
	}
	if d.state == Healthy {
		return
	}
	d.clean++
	if d.clean >= clearTicks {
		d.clean = 0
		m.transition(i, d, at, d.state-1, s)
	}
}

func (m *Monitor) transition(i int, d *devState, at sim.Time, to State, score int64) {
	from := d.state
	d.state = to
	m.log = append(m.log, Transition{Dev: i, Name: d.name, At: at, From: from, To: to, Score: score})
	if m.tr != nil {
		m.tr.Instant(d.tk, "health."+to.String()).
			Arg("from", int64(from)).Arg("score", score)
	}
	if m.onTrans != nil {
		m.onTrans(i, from, to)
	}
}

// Force sets a device's state directly, bypassing the classifier. It
// exists for failure drills and tests only — production code must let
// transitions flow from the monitor's own evaluation; the healthstate
// biscuitvet analyzer reports any other caller.
func (m *Monitor) Force(dev int, to State) {
	d := m.devs[dev]
	if d.state == to {
		return
	}
	m.transition(dev, d, m.env.Now(), to, -1)
}
