// Command biscuitbench regenerates the paper's tables and figures on the
// simulated platform and prints each as the Markdown EXPERIMENTS.md
// carries.
//
// Usage:
//
//	biscuitbench -exp all
//	biscuitbench -exp table2,table3
//	biscuitbench -exp fig10 -sf 0.02
//	biscuitbench -exp fig8 -json out/      # writes out/BENCH_fig8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"biscuit"
	"biscuit/internal/bench"
)

// result is what every experiment returns: a struct written as
// BENCH_<name>.json that renders itself as Markdown.
type result interface{ WriteMarkdown(io.Writer) }

// experiment is one entry of the list: how to run it, and how to decode
// its blessed baseline into the same result type.
type experiment struct {
	name   string
	run    func(bench.Config) result
	decode func(*json.Decoder) (result, error)
}

// exp is the entry for the experiment Run function run.
func exp[R result](name string, run func(bench.Config) R) experiment {
	return experiment{name,
		func(cfg bench.Config) result { return run(cfg) },
		func(dec *json.Decoder) (result, error) {
			var r R
			err := dec.Decode(&r)
			return r, err
		}}
}

// experiments is the one list of experiments: the -exp help string,
// name validation, "all", the dispatch order and the doc test all come
// from it.
var experiments = []experiment{
	exp("table2", func(bench.Config) bench.Table2 { return bench.RunTable2() }),
	exp("table3", func(bench.Config) bench.Table3 { return bench.RunTable3() }),
	exp("fig7", func(bench.Config) bench.Fig7 { return bench.RunFig7() }),
	exp("table4", bench.RunTable4),
	exp("table5", bench.RunTable5),
	exp("fig8", bench.RunFig8),
	exp("fig9", bench.RunFig9),
	exp("fig10", bench.RunFig10),
	exp("faultcurve", bench.RunFaultCurve),
	exp("servecurve", bench.RunServeCurve),
	exp("healcurve", bench.RunHealCurve),
	exp("ablations", bench.RunAblations),
}

// experimentNames is "all" and every experiment, comma-separated.
func experimentNames() string {
	names := "all"
	for _, e := range experiments {
		names += "," + e.name
	}
	return names
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main with its arguments and output streams as parameters so
// the test can drive it; it returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("biscuitbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps     = fs.String("exp", "all", "comma-separated experiments: "+experimentNames())
		sf       = fs.Float64("sf", 0, "TPC-H scale factor override for fig8/fig9/fig10")
		quick    = fs.Bool("quick", false, "use reduced experiment sizes")
		jsonDir  = fs.String("json", "", "write each experiment's result struct as BENCH_<exp>.json into this directory")
		traceOut = fs.String("trace", "", "write a Chrome/Perfetto trace per simulated platform: <path>, <path>.2, ...")
		stats    = fs.Bool("stats", false, "dump each platform's counters and latency percentiles at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(strings.Split(experimentNames(), ","), name) {
			fmt.Fprintf(stderr, "biscuitbench: unknown experiment %q (valid: %s)\n", name, experimentNames())
			return 2
		}
		want[name] = true
	}

	// Every experiment builds its platforms through bench.newSystemWith
	// or, for the serving arrays, bench.serveWindow; the hook sees each
	// one, so tracing and counter dumps need no per-experiment plumbing.
	// Traces are written after all runs finish — every simulation is
	// driven to completion inside its Run function.
	var systems []*biscuit.System
	if *traceOut != "" || *stats {
		bench.OnSystem = func(s *biscuit.System) {
			if *traceOut != "" {
				s.NewTracer()
			}
			systems = append(systems, s)
		}
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *sf > 0 {
		cfg.SF = *sf
	}
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			r := e.run(cfg)
			writeJSON(*jsonDir, e.name, r)
			fmt.Fprintf(stdout, "## %s\n\n", e.name)
			r.WriteMarkdown(stdout)
			fmt.Fprintln(stdout)
		}
	}

	for i, s := range systems {
		if *traceOut != "" {
			path := *traceOut
			if i > 0 {
				path = fmt.Sprintf("%s.%d", *traceOut, i+1)
			}
			if err := s.Tracer().WriteFile(path); err != nil {
				fmt.Fprintln(stderr, "trace:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s (load in https://ui.perfetto.dev)\n", path)
		}
		if *stats {
			s.Plat.WriteStats(stdout, i+1)
		}
	}
	if *stats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(stdout, "-- process peak memory: rss=%s go_heap=%d kB\n", peakRSS(), ms.HeapSys>>10)
	}
	return 0
}

// peakRSS is the process's resident-set high-water mark as
// /proc/self/status reports it (VmHWM), or "n/a" where there is none.
// The Go heap's peak beside it is MemStats.HeapSys, which the runtime
// documents as the largest size the heap has had.
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "n/a"
	}
	for line := range strings.Lines(string(status)) {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.Join(strings.Fields(v), " ")
		}
	}
	return "n/a"
}

// writeJSON marshals one experiment's result struct to
// <dir>/BENCH_<exp>.json so CI and plotting scripts consume results
// without scraping the Markdown. Durations and sim.Time values marshal
// as integer nanoseconds / picoseconds.
func writeJSON(dir, exp string, v any) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
