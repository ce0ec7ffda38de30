// Command biscuitbench regenerates the paper's tables and figures on the
// simulated platform and prints them in the paper's layout.
//
// Usage:
//
//	biscuitbench -exp all
//	biscuitbench -exp table2,table3
//	biscuitbench -exp fig10 -sf 0.02
//	biscuitbench -exp ablations            # the Markdown table of EXPERIMENTS.md
//	biscuitbench -exp fig8 -json out/      # writes out/BENCH_fig8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"biscuit"
	"biscuit/internal/bench"
	"biscuit/internal/sim"
)

// run carries what every experiment needs: the sizes and where to write
// its JSON.
type run struct {
	cfg     bench.Config
	jsonDir string
}

// experiments is the one list of experiment names: the -exp help
// string, name validation, "all" and the dispatch order all come from
// it.
var experiments = []struct {
	name string
	run  func(*run)
}{
	{"table2", (*run).table2},
	{"table3", (*run).table3},
	{"fig7", (*run).fig7},
	{"table4", (*run).table4},
	{"table5", (*run).table5},
	{"fig8", (*run).fig8},
	{"fig9", (*run).fig9},
	{"fig10", (*run).fig10},
	{"faultcurve", (*run).faultcurve},
	{"servecurve", (*run).servecurve},
	{"healcurve", (*run).healcurve},
	{"ablations", (*run).ablations},
}

// experimentNames is "all" and every experiment, comma-separated.
func experimentNames() string {
	names := "all"
	for _, e := range experiments {
		names += "," + e.name
	}
	return names
}

func main() { os.Exit(cli(os.Args[1:], os.Stderr)) }

// cli is main with its arguments and error stream as parameters so the
// test can drive flag and name validation; it returns the exit code.
func cli(args []string, stderr io.Writer) int {
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

	// Every experiment builds its platforms through bench.newSystemWith;
	// the hook sees each one, so tracing and counter dumps need no per-
	// experiment plumbing. Traces are written after all runs finish —
	// every simulation is driven to completion inside its Run function.
	var systems []*biscuit.System
	if *traceOut != "" || *stats {
		bench.OnSystem = func(s *biscuit.System) {
			if *traceOut != "" {
				s.NewTracer()
			}
			systems = append(systems, s)
		}
	}

	b := &run{cfg: bench.DefaultConfig(), jsonDir: *jsonDir}
	if *quick {
		b.cfg = bench.QuickConfig()
	}
	if *sf > 0 {
		b.cfg.SF = *sf
	}
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			e.run(b)
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
			fmt.Printf("wrote %s (load in https://ui.perfetto.dev)\n", path)
		}
		if *stats {
			fmt.Printf("-- platform %d counters\n", i+1)
			for _, c := range s.Plat.Ctrs.Snapshot() {
				fmt.Printf("   %-24s %d\n", c.Name, c.Value)
			}
			fmt.Printf("-- platform %d latencies (ns)\n", i+1)
			for _, h := range s.Plat.Hists.Snapshot() {
				fmt.Printf("   %-24s count=%-8d p50=%-11d p95=%-11d p99=%-11d max=%d\n",
					h.Name, h.Summary.Count, h.Summary.P50, h.Summary.P95, h.Summary.P99, h.Summary.Max)
			}
		}
	}
	return 0
}

func (b *run) table2() {
	t2 := bench.RunTable2()
	writeJSON(b.jsonDir, "table2", t2)
	fmt.Println("Table II — measured latency for different I/O port types")
	fmt.Printf("  %-18s %-10s %-14s %-12s\n", "Host-to-device", "", "Inter-SSDlet", "Inter-app.")
	fmt.Printf("  %-8s %-9s\n", "H2D", "D2H")
	fmt.Printf("  %-8.1f %-9.1f %-14.1f %-12.1f  (us; paper: 301.6 / 130.1 / 31.0 / 10.7)\n\n",
		t2.H2D.Micros(), t2.D2H.Micros(), t2.InterSSDlet.Micros(), t2.InterApp.Micros())
}

func (b *run) table3() {
	t3 := bench.RunTable3()
	writeJSON(b.jsonDir, "table3", t3)
	fmt.Println("Table III — measured data read latency (4 KiB)")
	fmt.Printf("  Conv %.1f us   Biscuit %.1f us   (paper: 90.0 / 75.9)\n\n", t3.Conv.Micros(), t3.Biscuit.Micros())
}

func (b *run) fig7() {
	f7 := bench.RunFig7()
	writeJSON(b.jsonDir, "fig7", f7)
	fmt.Println("Fig. 7 — read bandwidth vs request size (GB/s)")
	fmt.Printf("  %-10s | %-26s | %-26s\n", "", "synchronous", "asynchronous (QD 32)")
	fmt.Printf("  %-10s | %8s %8s %8s | %8s %8s %8s\n", "req size", "Conv", "Biscuit", "w/ PM", "Conv", "Biscuit", "w/ PM")
	for i := range f7.Sync {
		s, a := f7.Sync[i], f7.Async[i]
		fmt.Printf("  %7dKiB | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
			s.ReqSize>>10, s.Conv, s.Biscuit, s.Matcher, a.Conv, a.Biscuit, a.Matcher)
	}
	fmt.Println()
}

func (b *run) table4() {
	t4 := bench.RunTable4(b.cfg)
	writeJSON(b.jsonDir, "table4", t4)
	fmt.Println("Table IV — execution time for pointer chasing (s)")
	printSweep(t4.Rows)
}

func (b *run) table5() {
	t5 := bench.RunTable5(b.cfg)
	writeJSON(b.jsonDir, "table5", t5)
	fmt.Printf("Table V — execution time for string matching (s), %d matches\n", t5.Matches)
	printSweep(t5.Rows)
}

func (b *run) fig8() {
	f8 := bench.RunFig8(b.cfg)
	writeJSON(b.jsonDir, "fig8", f8)
	fmt.Printf("Fig. 8 — SQL queries on lineitem (SF %.3f, %d reps, mean ± 95%% CI)\n", b.cfg.SF, len(f8.Q1Conv.Times))
	pr := func(name string, s bench.Fig8Series) {
		fmt.Printf("  %-12s %10.4fs ± %.4f (%d rows)\n", name, s.MeanS, s.CI95S, s.RowsOut)
	}
	pr("Q1 Conv", f8.Q1Conv)
	pr("Q1 Biscuit", f8.Q1Biscuit)
	fmt.Printf("  Q1 speed-up  %9.1fx (paper: ~11x)\n", f8.Q1Conv.MeanS/f8.Q1Biscuit.MeanS)
	pr("Q2 Conv", f8.Q2Conv)
	pr("Q2 Biscuit", f8.Q2Biscuit)
	fmt.Printf("  Q2 speed-up  %9.1fx (paper: ~10x)\n\n", f8.Q2Conv.MeanS/f8.Q2Biscuit.MeanS)
}

func (b *run) fig9() {
	f9 := bench.RunFig9(b.cfg)
	writeJSON(b.jsonDir, "fig9", f9)
	fmt.Println("Fig. 9 / Table VI — system power during Query 1")
	fmt.Printf("  idle %.0f W\n", f9.IdleW)
	fmt.Printf("  Conv:    exec %.4fs  avg %.1f W  energy %.3f J\n", f9.Conv.ExecS, f9.Conv.AvgW, f9.Conv.EnergyJ)
	fmt.Printf("  Biscuit: exec %.4fs  avg %.1f W  energy %.3f J\n", f9.Biscuit.ExecS, f9.Biscuit.AvgW, f9.Biscuit.EnergyJ)
	fmt.Printf("  energy ratio %.1fx (paper: ~5x)\n\n", f9.Conv.EnergyJ/f9.Biscuit.EnergyJ)
}

func (b *run) fig10() {
	f10 := bench.RunFig10(b.cfg)
	writeJSON(b.jsonDir, "fig10", f10)
	fmt.Printf("Fig. 10 — TPC-H relative performance (SF %.3f)\n", b.cfg.SF)
	fmt.Printf("  %-4s %-36s %12s %12s %9s %8s  %s\n", "Q", "title", "Conv", "Biscuit", "speedup", "I/O red.", "decision")
	for _, r := range f10.Rows {
		fmt.Printf("  Q%-3d %-36s %12v %12v %8.1fx %7.1fx  %s\n",
			r.Query, r.Title, r.ConvTime, r.BiscTime, r.Speedup, r.IOReduction, r.Reason)
	}
	fmt.Printf("  offloaded %d of 22 | geomean(offloaded) %.1fx | top-five mean %.1fx | total %.2fs vs %.2fs = %.1fx\n",
		f10.OffloadedCount, f10.GeoMeanOff, f10.TopFiveMean, f10.TotalConvS, f10.TotalBiscS, f10.TotalSpeedup)
	fmt.Println("  (paper: 8 offloaded, geomean 6.1x, top-five 15.4x, total 3.6x)")
}

func (b *run) faultcurve() {
	fc := bench.RunFaultCurve(b.cfg)
	writeJSON(b.jsonDir, "faultcurve", fc)
	fmt.Printf("Fault curve — Q6 availability and latency vs fault intensity (SF %.3f, %d queries/point)\n", fc.SF, fc.Points[0].Issued)
	fmt.Printf("  %-9s %-5s %-7s %-5s %-7s %-9s %-9s %-9s %-8s %-7s %-7s %-5s %s\n",
		"intensity", "W", "avail%", "ok", "conv", "p50(ms)", "p95(ms)", "p99(ms)", "ndp-fb", "reconst", "degradd", "scrub", "lost")
	for _, pt := range fc.Points {
		die := ""
		if pt.DieFailed {
			die = " +die"
		}
		w := "auto"
		if pt.Width > 0 {
			w = fmt.Sprintf("%d", pt.Width)
		}
		fmt.Printf("  %-9g %-5s %-7.1f %-5d %-7d %-9.2f %-9.2f %-9.2f %-8d %-7d %-7d %-5d %d%s\n",
			pt.Intensity, w, pt.Availability*100, pt.OK, pt.ConvReruns,
			float64(pt.Lat.P50)/1e6, float64(pt.Lat.P95)/1e6, float64(pt.Lat.P99)/1e6,
			pt.NDPFallbacks, pt.Reconstructs, pt.DegradedReads, pt.ScrubRepairs, pt.LostPages, die)
	}
	fmt.Println()
}

func (b *run) servecurve() {
	sc := bench.RunServeCurve(b.cfg)
	writeJSON(b.jsonDir, "servecurve", sc)
	fmt.Printf("Serve curve — multi-tenant array serving (SF %.3f, %.0fms windows)\n",
		sc.SF, float64(sc.WindowNs)/1e6)
	fmt.Printf("  %-8s %-7s %-9s %-9s %-9s | %-24s | %s\n",
		"devices", "policy", "offered", "agg-qps", "rejected", "acme p50/p99(ms) miss", "bolt p50/p99(ms) miss")
	for _, pt := range sc.Points {
		r := pt.Report
		line := fmt.Sprintf("  %-8d %-7s %-9.0f %-9.1f %-9d |", pt.Devices, pt.Policy, pt.OfferedQPS, r.AggThroughputQPS, r.Rejected)
		for _, tr := range r.Tenants {
			line += fmt.Sprintf(" %6.2f /%7.2f %4d    |", float64(tr.Lat.P50)/1e6, float64(tr.Lat.P99)/1e6, tr.DeadlineMisses)
		}
		fmt.Println(line)
	}
	fmt.Println()
}

func (b *run) healcurve() {
	hc := bench.RunHealCurve(b.cfg)
	writeJSON(b.jsonDir, "healcurve", hc)
	fmt.Printf("Heal curve — availability vs die-fail time × rebuild × migration (SF %.3f, %.0fms windows)\n",
		hc.SF, float64(hc.WindowNs)/1e6)
	fmt.Printf("  %-9s %-10s %-8s %-7s %-9s %-9s %-6s %-7s %-8s %s\n",
		"fail-frac", "rebuild", "migrate", "avail%", "errors", "p99(ms)", "migr", "transit", "pages", "parity")
	for _, pt := range hc.Points {
		rb := "off"
		if pt.RebuildNs >= 0 {
			rb = fmt.Sprintf("%dus", pt.RebuildNs/1000)
		}
		fmt.Printf("  %-9g %-10s %-8v %-7.1f %-9d %-9.2f %-6d %-7d %-8d %d\n",
			pt.FailFrac, rb, pt.Migrate, pt.Availability*100, pt.Errors,
			float64(pt.WorstP99Ns)/1e6, pt.Migrations, pt.HealthTransitions,
			pt.RebuildPages, pt.RebuildParity)
	}
	fmt.Println()
}

func (b *run) ablations() {
	a := bench.RunAblations(b.cfg)
	writeJSON(b.jsonDir, "ablations", a)
	fmt.Printf("Ablations — the design choices of DESIGN.md §5 (TPC-H SF %.3f)\n\n", a.SF)
	printAblations(os.Stdout, a)
	fmt.Println()
}

// printAblations writes the ablations as the Markdown table
// EXPERIMENTS.md carries: the doc is this output for the blessed
// baseline, and main_test.go holds it to that. Times are virtual
// seconds; every number has the four significant figures of %.4g.
func printAblations(w io.Writer, a bench.Ablations) {
	ratio := func(num, den sim.Time) float64 { return float64(num) / float64(den) }
	row := func(name, format string, args ...any) {
		fmt.Fprintf(w, "| %s | "+format+" |\n", append([]any{name}, args...)...)
	}
	fmt.Fprintln(w, "| ablation | result |")
	fmt.Fprintln(w, "|---|---|")

	jo := a.JoinOrder
	row("NDP-first join order (Q14)", "%.4g s with the reorder, %.4g s in MariaDB order: reordering alone is %.4g×",
		jo.NDPFirst.Seconds(), jo.MariaDBOrder.Seconds(), ratio(jo.MariaDBOrder, jo.NDPFirst))

	ds := a.DeviceScan
	row("software-only device scan (Fig. 8 Query 1)", "Conv %.4g s, HW matcher %.4g s (%.4g×), SW device %.4g s (%.4g×)",
		ds.Conv.Seconds(), ds.HWMatcher.Seconds(), ratio(ds.Conv, ds.HWMatcher), ds.SWDevice.Seconds(), ratio(ds.Conv, ds.SWDevice))

	ij := a.IndexJoin
	row("B+tree index joins (Q14-shaped)", "Conv-BNL %.4g s, Conv-INL %.4g s, NDP-INL %.4g s (%d rows each)",
		ij.ConvBNL.Seconds(), ij.ConvINL.Seconds(), ij.NDPINL.Seconds(), ij.Rows)

	var ths, offs []string
	for _, pt := range a.Threshold {
		ths = append(ths, fmt.Sprintf("%g", pt.Threshold))
		offs = append(offs, fmt.Sprint(pt.Offloaded))
	}
	row("planner threshold sweep", "threshold %s → %s of 22 queries offload", strings.Join(ths, " / "), strings.Join(offs, " / "))

	ap := a.AggPushdown
	row("aggregation pushdown (Q6-shaped)", "link pages %d (Conv, %.4g s) → %d (filter offload, %.4g s) → %d (filter+aggregate offload, %.4g s)",
		ap.Conv.LinkPages, ap.Conv.Time.Seconds(), ap.Filter.LinkPages, ap.Filter.Time.Seconds(), ap.FilterAgg.LinkPages, ap.FilterAgg.Time.Seconds())

	var chs, bws []string
	for _, pt := range a.Channels {
		chs = append(chs, fmt.Sprint(pt.Channels))
		bws = append(bws, fmt.Sprintf("%.4g", pt.GBps))
	}
	row("channel-count sweep", "%s channels → %s GB/s internal", strings.Join(chs, " / "), strings.Join(bws, " / "))

	d, r := a.Networked.Direct, a.Networked.Remote
	row("networked organization (Fig. 1c)", "string-search gain %.4g× direct-attached → %.4g× behind a 10 GbE storage node (Conv %.4g s, NDP %.4g s)",
		ratio(d.Conv, d.NDP), ratio(r.Conv, r.NDP), r.Conv.Seconds(), r.NDP.Seconds())

	af := a.AsyncFile
	row("sync vs async SSDlet file API (64 KiB requests)", "sync %.4g s, async %.4g s: %.4g×",
		af.Sync.Seconds(), af.Async.Seconds(), ratio(af.Sync, af.Async))
}

// writeJSON marshals one experiment's result struct to
// <dir>/BENCH_<exp>.json so CI and plotting scripts consume results
// without scraping the human-oriented table output. Durations and
// sim.Time values marshal as integer nanoseconds / picoseconds.
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

func printSweep(rows []bench.LoadSweepRow) {
	fmt.Printf("  %-10s", "#threads")
	for _, r := range rows {
		fmt.Printf(" %9d", r.Threads)
	}
	fmt.Printf("\n  %-10s", "Conv")
	for _, r := range rows {
		fmt.Printf(" %9.4f", r.Conv.Seconds())
	}
	fmt.Printf("\n  %-10s", "Biscuit")
	for _, r := range rows {
		fmt.Printf(" %9.4f", r.Biscuit.Seconds())
	}
	fmt.Print("\n\n")
}
