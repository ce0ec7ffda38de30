package stats

import "testing"

func TestGaugeSetAddGet(t *testing.T) {
	gs := NewGauges()
	g := gs.G("hostif.qd")
	if got := g.Value(); got != 0 {
		t.Fatalf("fresh gauge = %d, want 0", got)
	}
	g.Set(7)
	g.Add(3)
	g.Add(-5)
	if got := g.Value(); got != 5 {
		t.Fatalf("after Set(7)+Add(3)+Add(-5) = %d, want 5", got)
	}
	if got := gs.Get("hostif.qd"); got != 5 {
		t.Fatalf("Get = %d, want 5", got)
	}
	gs.G("hostif.qd").Set(2)
	gs.G("hostif.qd").Add(2)
	if got := gs.Get("hostif.qd"); got != 4 {
		t.Fatalf("Set/Add through G = %d, want 4", got)
	}
	if got := gs.Get("never.registered"); got != 0 {
		t.Fatalf("unregistered Get = %d, want 0", got)
	}
}

func TestGaugeGIsStable(t *testing.T) {
	gs := NewGauges()
	a := gs.G("nand.busy_dies")
	b := gs.G("nand.busy_dies")
	if a != b {
		t.Fatalf("G returned distinct gauges for one name")
	}
}

func TestGaugesRegistrationOrder(t *testing.T) {
	gs := NewGauges()
	names := []string{"zeta.depth", "alpha.depth", "mid.depth"}
	for _, n := range names {
		gs.G(n)
	}
	gs.G("zeta.depth") // re-lookup must not re-append
	if gs.Len() != 3 {
		t.Fatalf("Len = %d, want 3", gs.Len())
	}
	for i, want := range names {
		if got, _ := gs.Ith(i); got != want {
			t.Fatalf("Ith(%d) = %q, want %q (registration order)", i, got, want)
		}
	}
}

func TestGaugeOnChangeLeftLimit(t *testing.T) {
	gs := NewGauges()
	g := gs.G("ftl.gc.debt")
	g.Set(10)
	var seen []int64
	gs.OnChange(func() { seen = append(seen, g.Value()) })
	g.Set(20)
	g.Add(5)
	want := []int64{10, 20} // hook observes the pre-change value
	if len(seen) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook observation %d = %d, want %d (left limit)", i, seen[i], want[i])
		}
	}
	gs.OnChange(nil)
	g.Set(1)
	if len(seen) != 2 {
		t.Fatalf("hook fired after uninstall")
	}
}

func TestGaugeNilSafety(t *testing.T) {
	var gs *Gauges
	if g := gs.G("x"); g != nil {
		t.Fatalf("nil registry G = %v, want nil", g)
	}
	var g *Gauge
	g.Set(1) // must not panic
	g.Add(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge Value != 0")
	}
	gs.OnChange(func() {})
	if gs.Len() != 0 || gs.Get("x") != 0 {
		t.Fatalf("nil registry not inert")
	}
}

// TestGaugeDisabledAllocs pins the disabled path: both a nil gauge
// (component never wired) and a registered gauge with no sampler hook
// (the steady state of every run without telemetry) must mutate with
// zero allocations, mirroring the disabled-tracer pin.
func TestGaugeDisabledAllocs(t *testing.T) {
	var nilG *Gauge
	if n := testing.AllocsPerRun(1000, func() {
		nilG.Add(1)
		nilG.Set(2)
	}); n != 0 {
		t.Fatalf("nil gauge mutation allocates %v/op, want 0", n)
	}
	gs := NewGauges()
	g := gs.G("hot.path")
	if n := testing.AllocsPerRun(1000, func() {
		g.Add(1)
		g.Set(0)
	}); n != 0 {
		t.Fatalf("unhooked gauge mutation allocates %v/op, want 0", n)
	}
}
