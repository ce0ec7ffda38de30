// Command benchmark is the repository's end-to-end performance ledger
// on both clocks: host time (what the Go process costs) and sim time
// (what the modelled hardware does). See README.md in this directory.
//
//	go run ./benchmark                         every workload, both flows, one ledger
//	go run ./benchmark -workload W -trace 0|1  one flow of one workload (the driver's form)
//	go run ./benchmark -compare a.json b.json  hold two ledgers against the bounds
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloads = []workload{tpchSuite, weblogGrep, serveWindow, healWindow, ingest}

// runSeconds is BENCHMARK.json's run_seconds: how long the untraced
// batches of one run measure.
const runSeconds = 16

//go:embed expected_seed1.json
var expectedSeed1 []byte

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print the driver's result line (default: all, as a ledger)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", runSeconds, "host seconds the untraced batches of one run measure")
		traced   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the counted/traced pass")
		runs     = flag.Int("runs", 1, "ledger: repeat each untraced flow this many times and keep every reading")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for ledger.json and spans.json")
		compare  = flag.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
		writeExp = flag.Bool("write-expected", false, "ledger: rewrite benchmark/expected_seed1.json from this run (seed 1 only)")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareLedgers(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(runOne(*name, *seed, *seconds, *traced == 1, *outDir))
	default:
		os.Exit(runLedger(*seed, *seconds, *runs, *outDir, *writeExp))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// newCtx sizes one flow. The traced flow runs a fixed number of
// untraced batches instead of a time budget and builds once, so that
// every count it reports repeats exactly.
func newCtx(seed int64, seconds int, rec *recorder) *ctx {
	c := &ctx{seed: seed, sc: fullScale, budget: time.Duration(seconds) * time.Second, rec: rec}
	if rec != nil {
		c.budget = 0
		c.sc.setupReps = 1
	}
	return c
}

// run runs one flow and, on the pinned seed, holds it against
// expected_seed1.json. A moved answer is always a failed check; a moved
// sim-clock value is one only when strict — in the ledger, where the
// developer who changed the model re-pins — and a printed note in the
// driver's form, where the metrics themselves carry that news.
func run(c *ctx, w workload, strict bool) *result {
	r := runFlow(c, w)
	if c.seed == 1 && c.sc.name == fullScale.name {
		checkExpected(r, expectedSeed1, strict)
	}
	return r
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// printMetrics prints one line per reported metric of the given specs:
// workload metric value unit n=samples.
func printMetrics(r *result, lists ...[]spec) {
	for _, list := range lists {
		for _, sp := range list {
			if m, ok := r.metrics[sp.name]; ok {
				fmt.Printf("%-13s %-30s %14.6g %-6s n=%d\n", r.workload, m.Name, m.Value, m.Unit, m.N)
			}
		}
	}
}

func printChecks(r *result) {
	for _, n := range r.notes {
		fmt.Printf("%-13s note: %s\n", r.workload, n)
	}
	for _, ch := range r.checks {
		if !ch.OK {
			fmt.Printf("%-13s CHECK FAILED %s: %s\n", r.workload, ch.Name, ch.Detail)
		}
	}
}

// runOne is the driver's form: one flow of one workload, and as the
// last line of standard output one JSON object with the metrics the
// flow owes — end_to_end with tracing off, per_layer from the traced
// flow, zero where a per-layer metric is not defined on the workload.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) int {
	w, ok := findWorkload(name)
	if !ok {
		fatal("unknown workload %q", name)
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	r := run(newCtx(seed, seconds, rec), w, false)
	// The lines above the result show both groups the flow measured;
	// the result line carries the one the driver asked for.
	lists := [][]spec{endToEnd}
	if traced {
		lists = [][]spec{workloadEndToEnd, perLayer}
		writeSpans(outDir, rec.spans)
		printMetrics(r, lists...)
	} else {
		printMetrics(r, endToEnd, workloadEndToEnd)
	}
	printChecks(r)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, list := range lists {
		for _, sp := range list {
			out.Metrics[sp.name] = value{r.metrics[sp.name].Value, sp.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !r.correct() {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// The ledger: every workload, both flows, one file.

type ledgerRow struct {
	Workload string    `json:"workload"`
	Group    string    `json:"group"` // end_to_end or per_layer
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Clock    string    `json:"clock"`
	N        int       `json:"n"`
	Value    float64   `json:"value"` // median of Values
	Values   []float64 `json:"values"`
}

type ledgerCheck struct {
	Workload string `json:"workload"`
	Check
}

type ledger struct {
	Meta struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Commit     string `json:"commit"`
		Seed       int64  `json:"seed"`
		Seconds    int    `json:"seconds"`
		Runs       int    `json:"runs"`
		Scale      string `json:"scale"`
	} `json:"meta"`
	Rows   []ledgerRow                  `json:"rows"`
	Checks []ledgerCheck                `json:"checks"`
	Pinned map[string]map[string]string `json:"pinned"`
	// Claim is what a change says it gained; defining the benchmark
	// claims nothing.
	Claim *string `json:"claim"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func runLedger(seed int64, seconds, runs int, outDir string, writeExp bool) int {
	var lg ledger
	lg.Meta.NProc, lg.Meta.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	lg.Meta.GoVersion, lg.Meta.Commit = runtime.Version(), commit()
	lg.Meta.Seed, lg.Meta.Seconds, lg.Meta.Runs, lg.Meta.Scale = seed, seconds, runs, fullScale.name
	lg.Pinned = map[string]map[string]string{}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d runs=%d\n",
		lg.Meta.NProc, lg.Meta.GOMAXPROCS, lg.Meta.GoVersion, lg.Meta.Commit, seed, seconds, runs)

	rec := newRecorder()
	ok := true
	for _, w := range workloads {
		// Tracing off: the end-to-end metrics, runs times over.
		var flows []*result
		for i := 0; i < runs; i++ {
			flows = append(flows, run(newCtx(seed, seconds, nil), w, true))
		}
		// Then the counted/traced flow, once, for the per-layer numbers.
		layer := run(newCtx(seed, seconds, rec), w, true)

		e2e := flows[0]
		lg.addRows(w.name, "end_to_end", flows, endToEnd, workloadEndToEnd)
		lg.addRows(w.name, "per_layer", []*result{layer}, perLayer)
		printMetrics(e2e, endToEnd, workloadEndToEnd)
		if _, has := e2e.metrics["paper_err_pct"]; !has {
			fmt.Printf("%-13s %-30s unvalidated (the paper gives no figure for this workload)\n", w.name, "paper_err_pct")
		}
		printMetrics(layer, perLayer)

		pins := map[string]string{}
		for _, r := range append(flows, layer) {
			printChecks(r)
			ok = ok && r.correct()
			for _, ch := range r.checks {
				lg.Checks = append(lg.Checks, ledgerCheck{w.name, ch})
			}
			for k, v := range r.exact() {
				pins[k] = v
			}
		}
		lg.Pinned[w.name] = pins
	}

	fmt.Println("# host-clock self time per span name (traced flows)")
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("%-34s %10.1f ms\n", n, float64(self[n])/1e6)
	}

	writeSpans(outDir, rec.spans)
	writeJSON(filepath.Join(outDir, "ledger.json"), lg)
	if writeExp {
		if seed != 1 {
			fatal("-write-expected pins seed 1, not seed %d", seed)
		}
		writeJSON(filepath.Join("benchmark", "expected_seed1.json"), lg.Pinned)
	}
	if !ok {
		fmt.Println("# FAILED: a correctness check did not hold")
		return 1
	}
	return 0
}

// addRows appends one row per metric of the given specs that the flows
// reported, keeping every flow's reading.
func (lg *ledger) addRows(workload, group string, flows []*result, lists ...[]spec) {
	for _, list := range lists {
		for _, sp := range list {
			m, ok := flows[0].metrics[sp.name]
			if !ok {
				continue
			}
			row := ledgerRow{Workload: workload, Group: group, Metric: sp.name, Unit: sp.unit, Clock: sp.clock, N: m.N}
			for _, r := range flows {
				row.Values = append(row.Values, r.metrics[sp.name].Value)
			}
			row.Value = median(row.Values)
			lg.Rows = append(lg.Rows, row)
		}
	}
}

// exact is everything of a result that must repeat exactly under one
// seed: the pinned digests plus every sim-clock metric and count.
func (r *result) exact() map[string]string {
	out := map[string]string{}
	for k, v := range r.pinned {
		out[k] = v
	}
	for _, m := range r.metrics {
		if m.Clock != clockHost {
			out[m.Name] = strconv.FormatFloat(m.Value, 'g', -1, 64)
		}
	}
	return out
}

// checkExpected holds a seed-1 result against the pinned file. Keys
// the file does not know are not an error, so that a later change can
// add a metric before it re-pins.
func checkExpected(r *result, file []byte, strict bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(file, &all); err != nil {
		r.check("expected_seed1", false, "expected_seed1.json: %v", err)
		return
	}
	want := all[r.workload]
	answers, sim := "", ""
	got := r.exact()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; ok && w != got[k] {
			diff := fmt.Sprintf(" %s=%s (pinned %s)", k, got[k], w)
			if strings.HasPrefix(k, "pin:") {
				answers += diff
			} else {
				sim += diff
			}
		}
	}
	r.check("expected_seed1.answers", answers == "", "answers differ from expected_seed1.json:%s", answers)
	if strict {
		r.check("expected_seed1.sim", sim == "", "sim-clock values differ from expected_seed1.json:%s", sim)
	} else if sim != "" {
		r.notes = append(r.notes, "sim-clock values differ from expected_seed1.json:"+sim)
	}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatal("%v", err)
	}
}

func writeSpans(outDir string, spans []span) {
	writeJSON(filepath.Join(outDir, "spans.json"), spans)
}
