// Package telemetry records fixed-interval time series of stats.Gauges
// levels on the simulation clock — the continuous view (queue depth at
// time t, busy dies at time t, tenant backlog at time t) that the
// event-granular span/histogram layer cannot answer.
//
// The sampler deliberately schedules nothing: a self-rescheduling
// sampling event would keep the event queue non-empty forever (the sim
// kernel runs until it drains) and would shift every event sequence
// number, perturbing the byte-exact traces the bench gate pins.
// Instead it rides the registries' mutation hook: immediately before
// any gauge changes, the sampler backfills every sample tick that has
// elapsed since it last looked, reading each gauge's pre-change value —
// the left limit, which is exactly the level that held across those
// ticks. Flush records the remaining ticks at export time. The result
// is bit-identical to an eager per-tick poller, with zero events and
// zero cost on runs that never mutate a gauge.
//
// Determinism: series order is gauge registration order (never map
// order), tick times are k×interval on the virtual clock, and digests
// are FNV-1a over the raw samples — so two same-seed runs must produce
// byte-identical series, which the bench gate and tracesmoke enforce.
package telemetry

import (
	"fmt"

	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// DefaultInterval is the sampling period when the caller does not pick
// one: fine enough to resolve NVMe command lifetimes (~tens of µs),
// coarse enough that a serving window stays a few thousand samples.
const DefaultInterval = 100 * sim.Microsecond

// attached is one gauge registry under observation, with the series
// name prefix distinguishing it in a multi-registry (multi-device)
// sampler.
type attached struct {
	gs     *stats.Gauges
	prefix string
	known  int // gauges already wrapped into series
}

// series is one gauge's sample vector. Samples are the gauge's level
// at t = k×interval for k = 0,1,2,...
type series struct {
	name    string
	g       *stats.Gauge
	samples []int64
}

// Sampler records every attached registry's gauges at a fixed virtual
// interval. A nil Sampler ignores all calls, mirroring the nil-Tracer
// convention.
type Sampler struct {
	env      *sim.Env
	interval sim.Time
	regs     []*attached
	series   []*series
	ticks    int // sample ticks recorded so far; tick k is at k×interval
}

// NewSampler creates a sampler on env's clock. interval <= 0 selects
// DefaultInterval.
func NewSampler(env *sim.Env, interval sim.Time) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{env: env, interval: interval}
}

// Interval reports the sampling period (0 on a nil sampler).
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// Attach puts gs under observation; every series name gains prefix
// (conventionally ending in ".", e.g. "ssd0."). Gauges registered
// after Attach are picked up automatically, backfilled with their
// creation-time level. Attach installs the registry's OnChange hook,
// so a registry feeds at most one sampler.
func (s *Sampler) Attach(gs *stats.Gauges, prefix string) {
	if s == nil || gs == nil {
		return
	}
	s.regs = append(s.regs, &attached{gs: gs, prefix: prefix})
	gs.OnChange(s.advance)
	s.sync()
}

// sync wraps any newly registered gauges into series, backfilling the
// ticks recorded before the gauge existed with its current level.
func (s *Sampler) sync() {
	for _, a := range s.regs {
		for ; a.known < a.gs.Len(); a.known++ {
			name, g := a.gs.Ith(a.known)
			se := &series{name: a.prefix + name, g: g}
			if s.ticks > 0 {
				se.samples = make([]int64, s.ticks)
				for i := range se.samples {
					se.samples[i] = g.Value()
				}
			}
			s.series = append(s.series, se)
		}
	}
}

// advance records every sample tick that has elapsed up to the current
// virtual time. It runs as the registries' pre-mutation hook, so the
// gauges still hold the levels that were in effect across those ticks.
func (s *Sampler) advance() {
	s.sync()
	now := int64(s.env.Now())
	iv := int64(s.interval)
	for int64(s.ticks)*iv <= now {
		for _, se := range s.series {
			se.samples = append(se.samples, se.g.Value())
		}
		s.ticks++
	}
}

// Flush records all sample ticks up to the current virtual time. Call
// it (directly or via Summaries/ExportCounters) once the run is over;
// mutations keep the sampler current on their own.
func (s *Sampler) Flush() {
	if s == nil {
		return
	}
	s.advance()
}

// Series is one exported sample vector.
type Series struct {
	Name       string
	IntervalNs int64
	Samples    []int64
}

// Series returns every series in registration order, flushed to now.
// The sample slices are the sampler's own; treat them as read-only.
func (s *Sampler) Series() []Series {
	if s == nil {
		return nil
	}
	s.advance()
	out := make([]Series, len(s.series))
	for i, se := range s.series {
		out[i] = Series{Name: se.name, IntervalNs: int64(s.interval), Samples: se.samples}
	}
	return out
}

// SeriesSummary is the per-series digest embedded in BENCH_*.json. All
// fields are deterministic per seed, so the bench gate compares them
// exactly.
type SeriesSummary struct {
	Name       string `json:"name"`
	Samples    int    `json:"samples"`
	IntervalNs int64  `json:"interval_ns"`
	Min        int64  `json:"min"`
	Max        int64  `json:"max"`
	Mean       int64  `json:"mean"`
	Digest     string `json:"digest"` // FNV-1a over the raw samples, hex
}

// Summaries digests every series, flushed to now, in registration
// order (already deterministic; name-sorting would break nothing but
// registration order groups related series).
func (s *Sampler) Summaries() []SeriesSummary {
	if s == nil {
		return nil
	}
	s.advance()
	out := make([]SeriesSummary, len(s.series))
	for i, se := range s.series {
		out[i] = summarize(se.name, int64(s.interval), se.samples)
	}
	return out
}

func summarize(name string, interval int64, samples []int64) SeriesSummary {
	sum := SeriesSummary{Name: name, Samples: len(samples), IntervalNs: interval}
	var h stats.Digest
	var total int64
	for i, v := range samples {
		if i == 0 || v < sum.Min {
			sum.Min = v
		}
		if i == 0 || v > sum.Max {
			sum.Max = v
		}
		total += v
		h.AddInt64(v)
	}
	if len(samples) > 0 {
		sum.Mean = total / int64(len(samples))
	}
	sum.Digest = fmt.Sprintf("%016x", h.Sum64())
	return sum
}

// ExportCounters appends every series to tr as Perfetto counter events
// ('C' phase) on a "ctr/<series>" track each, with explicit historical
// timestamps at the tick times. Runs of equal samples are collapsed to
// their first point (a counter holds its value until the next event);
// the final tick always emits so the track spans the whole window.
// Per-track timestamps are strictly derived from tick order, so the
// monotonicity rule of tracestat.Parse holds by construction.
func (s *Sampler) ExportCounters(tr *trace.Tracer) {
	if s == nil || tr == nil {
		return
	}
	s.advance()
	for _, se := range s.series {
		tk := tr.Track("ctr/" + se.name)
		last := len(se.samples) - 1
		var prev int64
		for k, v := range se.samples {
			if k == 0 || v != prev || k == last {
				tr.CounterAt(tk, se.name, sim.Time(int64(k)*int64(s.interval)), v)
			}
			prev = v
		}
	}
}
