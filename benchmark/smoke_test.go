package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesSpecs holds BENCHMARK.json to the contract's
// limits and to the spec table the program reports from.
func TestManifestMatchesSpecs(t *testing.T) {
	m := readManifest(t)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	used := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		used(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or the why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	match := func(kind string, got []manifestMetric, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the spec table", kind, len(got), len(want))
		}
		for i, g := range got {
			used(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the spec table %+v", kind, i, g, w)
			}
			if !unit.MatchString(g.Unit) {
				t.Errorf("%s: unit %q", g.Name, g.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the spec table has %v (at most 0.25)", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	match("end_to_end", m.EndToEnd, endToEnd, true)
	match("per_layer", m.PerLayer, append(append([]spec(nil), workloadEndToEnd...), perLayer...), false)

	var setup *manifestMetric
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("end_to_end needs setup_s in s, lower is better; got %+v", setup)
	}
	for _, e := range m.EndToEnd {
		if *e.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
}

func tinyCtx(rec *recorder) *ctx {
	c := newCtx(7, 0, rec)
	c.sc = tinyScale
	return c
}

// TestSmoke runs every workload at a tiny scale: the checks hold, every
// name in BENCHMARK.json is reported by some workload, every sim-clock
// value and count repeats exactly on a second run, and a damaged
// reference makes the correctness check fail.
func TestSmoke(t *testing.T) {
	reported := map[string]bool{}
	rec := newRecorder()
	for _, w := range workloads {
		first := runFlow(tinyCtx(rec), w)
		// The second run compares against a damaged reference, which
		// must fail its check and still move no number.
		damaged := tinyCtx(rec)
		damaged.corruptRef = true
		second := runFlow(damaged, w)
		if second.correct() {
			t.Errorf("%s: the correctness check passed against a damaged reference", w.name)
		}
		for _, ch := range first.checks {
			if !ch.OK {
				t.Errorf("%s: check %s failed: %s", w.name, ch.Name, ch.Detail)
			}
		}
		if first.attempted < 1 || first.failed != 0 {
			t.Errorf("%s: %d ops attempted, %d failed", w.name, first.attempted, first.failed)
		}
		for _, sp := range endToEnd {
			if first.metrics[sp.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, sp.name, first.metrics[sp.name].Value)
			}
		}
		a, b := first.exact(), second.exact()
		if len(a) != len(b) {
			t.Errorf("%s: %d exact values in one run, %d in the next", w.name, len(a), len(b))
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s is %s in one run and %s in the next", w.name, k, v, b[k])
			}
		}
		for n := range first.metrics {
			reported[n] = true
		}
	}
	for n := range specByName {
		if !reported[n] {
			t.Errorf("no workload reports %s", n)
		}
	}
	self := selfTimes(rec.spans)
	for _, n := range []string{"setup.build", "reference", "op", "batch.traced"} {
		if _, ok := self[n]; !ok {
			t.Errorf("the traced flows recorded no %q span", n)
		}
	}
	var total int64
	for _, s := range rec.spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	var selfSum int64
	for _, v := range self {
		selfSum += v
	}
	if selfSum != total {
		t.Errorf("self times sum to %d ns, the top-level spans to %d ns", selfSum, total)
	}
}

func TestCompareVerdicts(t *testing.T) {
	row := func(metric, clock string, values ...float64) ledgerRow {
		return ledgerRow{Metric: metric, Clock: clock, Value: median(values), Values: values}
	}
	for _, tc := range []struct {
		name string
		a, b ledgerRow
		want string
	}{
		{"sim identical", row("sim_ms_per_op", clockSim, 5), row("sim_ms_per_op", clockSim, 5), "exact"},
		{"sim moved", row("sim_ms_per_op", clockSim, 5), row("sim_ms_per_op", clockSim, 5.0001), "DIFFERS"},
		{"count moved", row("ftl.gc_rounds", clockCount, 4), row("ftl.gc_rounds", clockCount, 5), "DIFFERS"},
		{"within 25 %", row("ref_ms_per_op", clockHost, 100, 101, 102), row("ref_ms_per_op", clockHost, 120, 121, 122), "within"},
		{"beyond 25 %", row("ref_ms_per_op", clockHost, 100, 101, 102), row("ref_ms_per_op", clockHost, 130, 131, 132), "WORSE"},
		{"better", row("ref_ms_per_op", clockHost, 100, 101, 102), row("ref_ms_per_op", clockHost, 50, 51, 52), "within"},
		{"too noisy to say", row("ref_ms_per_op", clockHost, 80, 100, 130), row("ref_ms_per_op", clockHost, 90, 120, 140), "unresolved"},
		{"noisy but separated", row("ref_ms_per_op", clockHost, 80, 100, 130), row("ref_ms_per_op", clockHost, 200, 240, 300), "WORSE"},
		{"no bound", row("sim.handoff_ns", clockHost, 400), row("sim.handoff_ns", clockHost, 900), "info"},
	} {
		if got := rowVerdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
