package health

import (
	"testing"

	"biscuit/internal/sim"
	"biscuit/internal/stats"
)

// rig is one attached device's registries plus the monitor watching it.
type rig struct {
	e *sim.Env
	g *stats.Gauges
	c *stats.Counters
	m *Monitor
}

func newRig() *rig {
	r := &rig{e: sim.NewEnv(), g: stats.NewGauges(), c: stats.NewCounters()}
	r.m = NewMonitor(r.e)
	return r
}

// ticks is n evaluation intervals.
func ticks(n int) sim.Time { return sim.Time(n) * interval }

func TestMonitorBackfillsTicksAtBoundaries(t *testing.T) {
	// The monitor rides the gauge registry's pre-mutation hook, so a
	// mutation long after a tick boundary must still evaluate the
	// elapsed ticks at their boundary times with left-limit values: a
	// GC-debt level raised at t=0 crosses the Degraded threshold on the
	// first tick, even though the triggering mutation lands three and a
	// half ticks later.
	r := newRig()
	r.m.Attach("dev", Probe{Gauges: r.g, Ctrs: r.c})
	debt := r.g.G("ftl.gc.debt")
	r.e.Spawn("t", func(p *sim.Proc) {
		debt.Set(degradedScore)
		p.Sleep(ticks(3) + interval/2)
		debt.Set(degradedScore) // first mutation past the boundaries: backfills ticks 1..3
	})
	r.e.Run()
	log := r.m.Transitions()
	if len(log) != 1 {
		t.Fatalf("want exactly one transition, got %v", log)
	}
	tr := log[0]
	if tr.From != Healthy || tr.To != Degraded {
		t.Fatalf("want Healthy->Degraded, got %v->%v", tr.From, tr.To)
	}
	if tr.At != interval {
		t.Fatalf("transition stamped at %v, want the first tick boundary %v", tr.At, interval)
	}
	if r.m.State(0) != Degraded {
		t.Fatalf("state = %v, want degraded", r.m.State(0))
	}
}

func TestMonitorHysteresis(t *testing.T) {
	// A hard-failure counter delta escalates straight to Critical on
	// the next tick; recovery then steps down one level per clearTicks
	// consecutive zero-score ticks: Critical -> Degraded -> Healthy.
	r := newRig()
	r.m.Attach("dev", Probe{Gauges: r.g, Ctrs: r.c})
	r.e.Spawn("t", func(p *sim.Proc) {
		r.c.Add("ftl.rain.reconstructfail", 1)
		p.Sleep(ticks(3 * clearTicks))
	})
	r.e.Run()
	r.m.Advance() // trailing ticks: no gauge mutated after t=0
	log := r.m.Transitions()
	want := []struct {
		at       sim.Time
		from, to State
	}{
		{ticks(1), Healthy, Critical},
		{ticks(1 + clearTicks), Critical, Degraded},
		{ticks(1 + 2*clearTicks), Degraded, Healthy},
	}
	if len(log) != len(want) {
		t.Fatalf("want %d transitions, got %v", len(want), log)
	}
	for i, w := range want {
		if log[i].At != w.at || log[i].From != w.from || log[i].To != w.to {
			t.Fatalf("transition %d = %+v, want %v->%v at %v", i, log[i], w.from, w.to, w.at)
		}
	}
}

func TestMonitorDeadDiePinsDegraded(t *testing.T) {
	// A dead die scores degradedScore every tick: the device escalates
	// to Degraded once and can never de-escalate (the media stays short
	// a die, rebuilt or not) — but a dead die alone is not Critical.
	r := newRig()
	dead := 0
	r.m.Attach("dev", Probe{Gauges: r.g, Ctrs: r.c, DeadDies: func() int { return dead }})
	r.e.Spawn("t", func(p *sim.Proc) {
		dead = 1
		p.Sleep(ticks(3 * clearTicks))
	})
	r.e.Run()
	r.m.Advance()
	if got := r.m.State(0); got != Degraded {
		t.Fatalf("state = %v, want degraded (pinned, not critical)", got)
	}
	if n := len(r.m.Transitions()); n != 1 {
		t.Fatalf("a pinned device must transition once, got %d", n)
	}
}

func TestMonitorSharedGridOrdersDevices(t *testing.T) {
	// Two devices crossing thresholds on the same tick must be logged
	// in attach order — the shared grid is what keeps the transition
	// log (and its signature) schedule-invariant.
	r := newRig()
	g2 := stats.NewGauges()
	r.m.Attach("a", Probe{Gauges: r.g, Ctrs: r.c})
	r.m.Attach("b", Probe{Gauges: g2})
	r.e.Spawn("t", func(p *sim.Proc) {
		r.g.G("ftl.gc.debt").Set(degradedScore)
		g2.G("ftl.gc.debt").Set(degradedScore)
		p.Sleep(ticks(1) + interval/2)
		r.g.G("ftl.gc.debt").Set(degradedScore)
	})
	r.e.Run()
	log := r.m.Transitions()
	if len(log) != 2 || log[0].Dev != 0 || log[1].Dev != 1 || log[0].At != log[1].At {
		t.Fatalf("same-tick transitions must log in device order: %v", log)
	}
	if log[0].Name != "a" || log[1].Name != "b" {
		t.Fatalf("names = %q,%q", log[0].Name, log[1].Name)
	}
}

func TestMonitorIgnoresUnstripedMisses(t *testing.T) {
	// Benign reconstruction misses on pages RAIN never covered must not
	// move the score — only real protection failures escalate.
	r := newRig()
	r.m.Attach("dev", Probe{Gauges: r.g, Ctrs: r.c})
	r.e.Spawn("t", func(p *sim.Proc) {
		r.c.Add("ftl.rain.unstriped", 50)
		p.Sleep(ticks(10))
	})
	r.e.Run()
	r.m.Advance()
	if got := r.m.State(0); got != Healthy {
		t.Fatalf("unstriped misses escalated the device to %v", got)
	}
	if n := len(r.m.Transitions()); n != 0 {
		t.Fatalf("want no transitions, got %d", n)
	}
}

// hysteresisRun drives one fixed scenario and returns the signature.
func hysteresisRun(burst int64) uint64 {
	r := newRig()
	r.m.Attach("dev", Probe{Gauges: r.g, Ctrs: r.c})
	r.e.Spawn("t", func(p *sim.Proc) {
		r.c.Add("ftl.rain.degraded", burst)
		p.Sleep(ticks(2))
		r.g.G("ftl.gc.debt").Set(0)
		p.Sleep(ticks(2 * clearTicks))
	})
	r.e.Run()
	r.m.Advance()
	return r.m.Signature()
}

func TestMonitorSignatureDeterministic(t *testing.T) {
	a, b := hysteresisRun(3), hysteresisRun(3)
	if a != b {
		t.Fatalf("same scenario gave signatures %x and %x", a, b)
	}
	if c := hysteresisRun(60); c == a {
		t.Fatal("a different scenario produced an identical signature")
	}
}

func TestMonitorSignaturePinned(t *testing.T) {
	// The digest of a three-transition log (escalate to Critical, then
	// step down twice), pinned to the value BENCH_healcurve.json's
	// health_digest has always been computed with: a change to the
	// record format or the hash moves every heal baseline.
	r := newRig()
	r.m.Attach("ssd0", Probe{Gauges: r.g, Ctrs: r.c})
	r.e.Spawn("t", func(p *sim.Proc) {
		r.c.Add("ftl.rain.reconstructfail", 1)
		p.Sleep(ticks(3 * clearTicks))
	})
	r.e.Run()
	r.m.Advance()
	if n := len(r.m.Transitions()); n != 3 {
		t.Fatalf("want 3 transitions, got %v", r.m.Transitions())
	}
	if got, want := r.m.Signature(), uint64(7961733291940638679); got != want {
		t.Fatalf("signature %d, want %d", got, want)
	}
}

func TestMonitorForceRecordsAndNotifies(t *testing.T) {
	// Force (failure drills, tests) must flow through the same
	// transition log and OnTransition path as scored changes, and be a
	// no-op when the state already matches.
	r := newRig()
	r.m.Attach("dev", Probe{Gauges: r.g})
	var calls int
	r.m.OnTransition(func(dev int, from, to State) {
		calls++
		if dev != 0 || from != Healthy || to != Critical {
			t.Fatalf("callback saw dev=%d %v->%v", dev, from, to)
		}
	})
	r.m.Force(0, Critical)
	r.m.Force(0, Critical) // same state: no-op
	if r.m.State(0) != Critical || calls != 1 {
		t.Fatalf("state=%v calls=%d", r.m.State(0), calls)
	}
	log := r.m.Transitions()
	if len(log) != 1 || log[0].Score != -1 {
		t.Fatalf("forced transition must log with score -1: %v", log)
	}
}
