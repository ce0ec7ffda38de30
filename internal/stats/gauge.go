package stats

import "sort"

// Gauge is a point-in-time level — queue depth, busy dies, backlog —
// the instantaneous sibling of the monotonic Counters. Like the rest of
// the stats family it is simulation-grade: no atomics (the sim kernel
// serializes all processes) and nil-safe, so components mutate
// unconditionally and a platform without telemetry pays only the nil
// check (pinned at 0 allocs/op by TestGaugeDisabledAllocs).
//
// Gauges are only minted by a Gauges registry (G), never free-standing:
// the registry owns the mutation hook that lets a telemetry sampler
// observe every level at its pre-change value (the left limit) before
// the change lands.
type Gauge struct {
	v   int64
	reg *Gauges // owning registry; carries the sampler hook
}

// Set replaces the level. A nil gauge ignores the call.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	for _, h := range g.reg.hooks {
		h()
	}
	g.v = v
}

// Add moves the level by d (negative to decrease). A nil gauge ignores
// the call.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	for _, h := range g.reg.hooks {
		h()
	}
	g.v += d
}

// Value reports the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Gauges is the named-gauge registry. Unlike Counters it remembers
// registration order — a telemetry sampler iterates gauges in that
// order, so series order (and therefore every digest downstream) is
// fixed by construction order, never map order. Snapshot stays
// name-sorted like the other registries.
type Gauges struct {
	m     map[string]*Gauge
	order []string // registration order == sampler series order
	hooks []func() // invoked in install order before every mutation (see OnChange)
}

// NewGauges returns an empty registry.
func NewGauges() *Gauges { return &Gauges{m: map[string]*Gauge{}} }

// G returns the named gauge, creating it at level 0 on first use, so
// hot paths resolve the name once and Set/Add directly. A nil registry
// returns nil (and a nil *Gauge ignores mutations), so callers need no
// guard.
func (gs *Gauges) G(name string) *Gauge {
	if gs == nil {
		return nil
	}
	g := gs.m[name]
	if g == nil {
		g = &Gauge{reg: gs}
		gs.m[name] = g
		gs.order = append(gs.order, name)
	}
	return g
}

// Set replaces the named gauge's level, creating it if needed.
func (gs *Gauges) Set(name string, v int64) { gs.G(name).Set(v) }

// Add moves the named gauge's level by d, creating it if needed.
func (gs *Gauges) Add(name string, d int64) { gs.G(name).Add(d) }

// Get reports the named gauge's level (0 if never registered).
func (gs *Gauges) Get(name string) int64 {
	if gs == nil {
		return 0
	}
	return gs.m[name].Value()
}

// Len reports the number of registered gauges.
func (gs *Gauges) Len() int {
	if gs == nil {
		return 0
	}
	return len(gs.order)
}

// Ith returns the i-th gauge in registration order; the telemetry
// sampler walks the registry through it.
func (gs *Gauges) Ith(i int) (string, *Gauge) {
	name := gs.order[i]
	return name, gs.m[name]
}

// OnChange installs fn to run immediately before any gauge of the
// registry mutates — while every level still holds its pre-change
// value. The telemetry sampler uses it to backfill elapsed sample
// ticks with correct left-limit values without scheduling a single
// simulation event; the health monitor chains a second hook the same
// way. Hooks run in install order and must tolerate re-entrancy (a
// hook mutating a gauge of the same registry fires the chain again).
// Each call appends; nil uninstalls every hook.
func (gs *Gauges) OnChange(fn func()) {
	if gs == nil {
		return
	}
	if fn == nil {
		gs.hooks = nil
		return
	}
	gs.hooks = append(gs.hooks, fn)
}

// NamedGauge is one (name, value) pair of a snapshot.
type NamedGauge struct {
	Name  string
	Value int64
}

// Snapshot returns all gauges sorted by name. The snapshot is a copy:
// later mutations do not alter it.
func (gs *Gauges) Snapshot() []NamedGauge {
	if gs == nil {
		return nil
	}
	out := make([]NamedGauge, 0, len(gs.m))
	for k, v := range gs.m {
		out = append(out, NamedGauge{k, v.v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
