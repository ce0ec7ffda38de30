package fault

import (
	"strings"
	"testing"
	"time"

	"biscuit/internal/sim"
)

func site(s string) func() string { return func() string { return s } }

// hotPlan fires on every operation, for tests that need faults on demand.
func hotPlan(seed int64) Plan {
	return Plan{
		Seed:              seed,
		CorrectableProb:   1,
		UncorrectableProb: 1,
		ProgramFailProb:   1,
		EraseFailProb:     1,
		TimeoutProb:       1,
		StallProb:         1,
	}
}

func mustInjector(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := NewInjector(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector must be disabled")
	}
	if d := in.Read(site("x")); d.Correctable || d.Uncorrectable {
		t.Fatal("nil injector decided a read fault")
	}
	if in.Program(site("x")) || in.Erase(site("x")) || in.Timeout(site("x")) || in.Stall(site("x")) {
		t.Fatal("nil injector decided a fault")
	}
	in.Record(Fallback, "x") // must not panic
	if in.Total() != 0 || in.Count(Fallback) != 0 || in.Events() != nil {
		t.Fatal("nil injector accumulated state")
	}
	if (in.Plan() != Plan{}) {
		t.Fatal("nil injector plan must be zero")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := mustInjector(t, Plan{Seed: 9})
	if in.Enabled() {
		t.Fatal("zero plan must be disabled")
	}
	for i := 0; i < 1000; i++ {
		if d := in.Read(site("r")); d.Correctable || d.Uncorrectable {
			t.Fatal("zero plan injected a read fault")
		}
		if in.Program(site("p")) || in.Erase(site("e")) || in.Timeout(site("t")) || in.Stall(site("s")) {
			t.Fatal("zero plan injected a fault")
		}
	}
	if in.Total() != 0 {
		t.Fatalf("total %d != 0", in.Total())
	}
}

func TestInvalidPlansRejected(t *testing.T) {
	bad := []Plan{
		{CorrectableProb: -0.1},
		{UncorrectableProb: 1.5},
		{ProgramFailProb: nan()},
		{CorrectableLatency: -1},
		{TimeoutDelay: -sim.Microsecond},
		{MaxFaults: -1},
	}
	for i, p := range bad {
		if _, err := NewInjector(nil, p); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// drive issues a fixed mixed decision sequence and returns the verdicts.
func drive(in *Injector, n int) []bool {
	var out []bool
	for i := 0; i < n; i++ {
		d := in.Read(site("nand.read"))
		out = append(out, d.Correctable, d.Uncorrectable)
		out = append(out, in.Program(site("nand.program")))
		out = append(out, in.Erase(site("nand.erase")))
		out = append(out, in.Timeout(site("hostif.cmd")))
		out = append(out, in.Stall(site("hostif.xfer")))
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	plan := DefaultPlan(42)
	a := mustInjector(t, plan)
	b := mustInjector(t, plan)
	da, db := drive(a, 5000), drive(b, 5000)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	if a.Signature() != b.Signature() {
		t.Fatal("same-seed signatures differ")
	}
	if a.Total() == 0 {
		t.Fatal("default plan injected nothing in 5000 ops")
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("schedules %d vs %d events", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	a := mustInjector(t, DefaultPlan(1))
	b := mustInjector(t, DefaultPlan(2))
	drive(a, 5000)
	drive(b, 5000)
	if a.Signature() == b.Signature() {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPerKindStreamsIndependent(t *testing.T) {
	// Consuming one kind's stream must not perturb another kind's
	// decisions: reads interleaved with programs see the same read
	// verdicts as reads alone.
	plan := DefaultPlan(7)
	a := mustInjector(t, plan)
	b := mustInjector(t, plan)
	var ra, rb []ReadDecision
	for i := 0; i < 3000; i++ {
		ra = append(ra, a.Read(site("r")))
		rb = append(rb, b.Read(site("r")))
		b.Program(site("p")) // extra traffic on another stream
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("read %d perturbed by program stream", i)
		}
	}
}

func TestReadDecisionNeverBoth(t *testing.T) {
	in := mustInjector(t, hotPlan(3))
	for i := 0; i < 100; i++ {
		d := in.Read(site("r"))
		if d.Correctable && d.Uncorrectable {
			t.Fatal("read decided both correctable and uncorrectable")
		}
		if !d.Uncorrectable && !d.Correctable {
			t.Fatal("hot plan must fault every read")
		}
	}
}

func TestMaxFaultsCapsInjection(t *testing.T) {
	p := hotPlan(5)
	p.MaxFaults = 3
	in := mustInjector(t, p)
	fired := 0
	for i := 0; i < 50; i++ {
		if in.Program(site("p")) {
			fired++
		}
	}
	if fired != 3 || in.Total() != 3 {
		t.Fatalf("fired %d, total %d, want 3", fired, in.Total())
	}
	// Consequences are exempt from the cap.
	in.Record(Fallback, "db")
	if in.Count(Fallback) != 1 || in.Total() != 3 {
		t.Fatal("consequence recording must not count against MaxFaults")
	}
}

func TestEventLogOrderAndCounts(t *testing.T) {
	in := mustInjector(t, hotPlan(1))
	in.Program(site("a"))
	in.Erase(site("b"))
	in.Record(GCRecover, "c")
	evs := in.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	wantKinds := []Kind{ProgramFail, EraseFail, GCRecover}
	wantSites := []string{"a", "b", "c"}
	for i, e := range evs {
		if e.Seq != i || e.Kind != wantKinds[i] || e.Site != wantSites[i] {
			t.Fatalf("event %d = %v", i, e)
		}
	}
	if in.Count(ProgramFail) != 1 || in.Count(EraseFail) != 1 || in.Count(GCRecover) != 1 {
		t.Fatal("per-kind counts wrong")
	}
	if in.Total() != 2 {
		t.Fatalf("total %d, want 2 (consequence excluded)", in.Total())
	}
}

func TestEventTimesStampedFromEnv(t *testing.T) {
	env := sim.NewEnv()
	in, err := NewInjector(env, hotPlan(2))
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("io", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		in.Program(site("x"))
	})
	env.Run()
	evs := in.Events()
	if len(evs) != 1 || evs[0].At != 5*sim.Microsecond {
		t.Fatalf("events %v, want one at 5us", evs)
	}
}

func TestKindString(t *testing.T) {
	if ECCCorrectable.String() != "ecc-correctable" || GCRecover.String() != "gc-recover" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("out-of-range kind must render its number")
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Seed: 42},
		DefaultPlan(7),
		hotPlan(-3),
		{Seed: 1, UncorrectableProb: 5e-4, MaxFaults: 2,
			CorrectableLatency: sim.FromDuration(60 * time.Microsecond)},
	}
	for _, p := range plans {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip %q: got %+v want %+v", p.String(), got, p)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=42, uncorrectable=5e-4\tcorrectable=0.01\ncorrectable-latency=60us max-faults=9")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, UncorrectableProb: 5e-4, CorrectableProb: 0.01,
		CorrectableLatency: sim.FromDuration(60 * time.Microsecond), MaxFaults: 9}
	if p != want {
		t.Fatalf("got %+v want %+v", p, want)
	}
	if pp, err := ParsePlan(""); err != nil || pp.Enabled() {
		t.Fatalf("empty plan: %+v err=%v", pp, err)
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"seed",                      // not key=value
		"seed=42 seed=43",           // duplicate
		"sneed=42",                  // unknown key
		"uncorrectable=banana",      // bad float
		"uncorrectable=2",           // out of range
		"correctable-latency=-60us", // negative latency
		"correctable-latency=60",    // missing unit
		"max-faults=-2",             // negative cap
		"seed=99999999999999999999", // overflow
		"diefail=64",                // die index out of mask range
		"diefail=-1",                // negative die index
		"diefail=1;1",               // duplicate die index
		"diefail=banana",            // not an integer
		"diefail=",                  // empty list
		"silent=1.5",                // out of range
		"diefail-after=-1ms",        // negative time
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

func TestParsePlanDieFail(t *testing.T) {
	p, err := ParsePlan("diefail=3;7 diefail-after=10ms silent=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FailedDies(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("FailedDies = %v, want [3 7]", got)
	}
	if p.DieFailAfter != sim.FromDuration(10*time.Millisecond) || p.SilentProb != 0.01 {
		t.Fatalf("got %+v", p)
	}
	if !p.Enabled() {
		t.Fatal("diefail plan must be enabled")
	}
	if q, err := ParsePlan(p.String()); err != nil || q != p {
		t.Fatalf("round trip %q: %+v err=%v", p.String(), q, err)
	}
}

func TestValidateDiesChecksGeometry(t *testing.T) {
	p := Plan{DieFailMask: 1<<3 | 1<<7}
	if err := p.ValidateDies(8); err != nil {
		t.Fatalf("dies within geometry rejected: %v", err)
	}
	if err := p.ValidateDies(7); err == nil {
		t.Fatal("die 7 in a 7-die geometry must be rejected")
	}
	if err := (Plan{}).ValidateDies(1); err != nil {
		t.Fatalf("empty mask rejected: %v", err)
	}
}

func TestDieDownRespectsFailAfter(t *testing.T) {
	env := sim.NewEnv()
	plan := Plan{Seed: 1, DieFailMask: 1 << 2, DieFailAfter: 10 * sim.Microsecond}
	in, err := NewInjector(env, plan)
	if err != nil {
		t.Fatal(err)
	}
	var before, after bool
	env.Spawn("t", func(p *sim.Proc) {
		before = in.DieDown(2)
		p.Sleep(10 * sim.Microsecond)
		after = in.DieDown(2)
	})
	env.Run()
	if before {
		t.Fatal("die down before DieFailAfter")
	}
	if !after {
		t.Fatal("die not down at DieFailAfter")
	}
	if in.DieDown(3) || in.DieDown(-1) || in.DieDown(64) {
		t.Fatal("unmasked / out-of-range dies reported down")
	}
	// One DieFail event per die, exempt from MaxFaults accounting.
	in.DieDown(2)
	if in.Count(DieFail) != 1 {
		t.Fatalf("DieFail events = %d, want 1", in.Count(DieFail))
	}
	if in.Total() != 0 {
		t.Fatalf("die failures charged against MaxFaults: total=%d", in.Total())
	}
}

func TestFailDieArmsAtRuntime(t *testing.T) {
	in := mustInjector(t, Plan{Seed: 4})
	if in.DieDown(5) {
		t.Fatal("unarmed die reported down")
	}
	in.FailDie(5)
	if !in.DieDown(5) || in.DieDown(4) {
		t.Fatal("FailDie mask wrong")
	}
	if in.Count(DieFail) != 1 {
		t.Fatalf("DieFail events = %d, want 1", in.Count(DieFail))
	}
	var nilInj *Injector
	nilInj.FailDie(1) // must not panic
	if nilInj.DieDown(1) {
		t.Fatal("nil injector reported a die down")
	}
}

func TestSilentStreamDeterministic(t *testing.T) {
	plan := Plan{Seed: 11, SilentProb: 0.2}
	a := mustInjector(t, plan)
	b := mustInjector(t, plan)
	hits := 0
	for i := 0; i < 2000; i++ {
		va, vb := a.Silent(site("p")), b.Silent(site("p"))
		if va != vb {
			t.Fatalf("silent decision %d diverged", i)
		}
		if va {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("silent plan never fired in 2000 programs")
	}
	if a.Count(SilentCorrupt) != int64(hits) {
		t.Fatalf("SilentCorrupt count %d != %d", a.Count(SilentCorrupt), hits)
	}
	var nilInj *Injector
	if nilInj.Silent(site("p")) {
		t.Fatal("nil injector decided silent corruption")
	}
}
