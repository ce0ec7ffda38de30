// Command sqlssd runs SQL queries against a TPC-H dataset on the
// simulated Biscuit SSD, printing results plus the offload planner's
// decision and the Conv-vs-Biscuit timing of each query.
//
//	sqlssd -sf 0.01 -q "SELECT l_orderkey FROM lineitem WHERE l_shipdate = '1995-1-17'"
//	echo "SELECT ... ; SELECT ..." | sqlssd    # one query per ';'
//
// With -devices N and/or -tenants M it instead runs one multi-tenant
// serving window on an N-device array (internal/serve): the catalog is
// shard-loaded across the devices, M tenants offer open-loop query
// streams, and the scheduler (-policy wfq|edf) serves them under
// admission control.
//
//	sqlssd -devices 4 -tenants 2 -rate 200 -window 300
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/fault"
	"biscuit/internal/serve"
	"biscuit/internal/sim"
	"biscuit/internal/sql"
	"biscuit/internal/telemetry"
	"biscuit/internal/tpch"
	"biscuit/internal/trace"
	"biscuit/internal/tracestat"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		q        = flag.String("q", "", "query to run (default: read from stdin, ';'-separated)")
		seed     = flag.Int64("seed", 1, "generator seed")
		maxRows  = flag.Int("rows", 20, "max rows to print per query")
		batch    = flag.Int("batch", 0, "executor batch size in rows (0 = default slab)")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace of the whole run to this JSON file")
		stats    = flag.Bool("stats", false, "print platform counters and latency percentiles after the run")
		faultArg = flag.String("fault", "", "arm a fault campaign, e.g. \"seed=7 silent=1e-3 diefail=3\" (see internal/fault)")
		devices  = flag.Int("devices", 1, "array width; >1 selects the multi-tenant serving mode")
		tenants  = flag.Int("tenants", 0, "tenant count; >0 selects the multi-tenant serving mode")
		rate     = flag.Float64("rate", 120, "serving mode: total offered load, queries/s split across tenants")
		windowMs = flag.Int("window", 300, "serving mode: arrival window in simulated milliseconds")
		policy   = flag.String("policy", "wfq", "serving mode: scheduling policy, wfq or edf")
		sampleUs = flag.Int64("sample", 0, "sample every gauge each N simulated microseconds; with -trace the series export as Perfetto counter tracks")
		explain  = flag.Bool("explain", false, "print each Biscuit query's trace-derived per-layer/per-operator sim-time breakdown")
		rainW    = flag.Int("rainW", 0, "RAIN stripe width W in data pages (0 = device default, Channels-1)")
		heal     = flag.Bool("heal", false, "serving mode: enable the self-healing stack (health monitor, patrol scrub, proactive rebuild, tenant migration on >1 device) and kill a die partway through the window")
	)
	flag.Parse()

	if *devices > 1 || *tenants > 0 || *heal {
		serveMain(*devices, *tenants, *rate, *windowMs, *policy, *sf, *seed, *faultArg, *traceOut, *sampleUs, *rainW, *heal)
		return
	}

	var queries []string
	if *q != "" {
		queries = []string{*q}
	} else {
		in := bufio.NewReader(os.Stdin)
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := in.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		for _, part := range strings.Split(sb.String(), ";") {
			if s := strings.TrimSpace(part); s != "" {
				queries = append(queries, s)
			}
		}
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "sqlssd: no queries (use -q or stdin)")
		os.Exit(2)
	}

	cfg := biscuit.DefaultConfig()
	cfg.FTL.StripeDataPages = *rainW
	if *faultArg != "" {
		plan, err := fault.ParsePlan(*faultArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fault:", err)
			os.Exit(2)
		}
		cfg.Fault = plan
	}
	sys := biscuit.NewSystem(cfg)
	if *traceOut != "" || *explain {
		sys.NewTracer()
	}
	var sampler *telemetry.Sampler
	if *sampleUs > 0 {
		sampler = telemetry.NewSampler(sys.Env, sim.Time(*sampleUs)*sim.Microsecond)
		sampler.Attach(sys.Plat.Gauges, "")
	}
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		if _, err := (tpch.Gen{SF: *sf}).Load(h, d, biscuit.SeededRand(*seed)); err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
	})
	fmt.Printf("TPC-H SF %.3f loaded.\n\n", *sf)

	sys.Run(func(h *biscuit.Host) {
		for _, query := range queries {
			fmt.Printf("sql> %s\n", query)

			exC := db.NewExec(h, d)
			exC.BatchSize = *batch
			start := h.Now()
			conv, err := sql.Run(exC, d, nil, query)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			convT := h.Now() - start

			exB := db.NewExec(h, d)
			exB.BatchSize = *batch
			start = h.Now()
			bisc, err := sql.Run(exB, d, planner.Default(), query)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			biscT := h.Now() - start

			printRows(bisc, *maxRows)
			if bisc.Decision != nil {
				fmt.Printf("-- planner: %s\n", bisc.Decision.Reason)
			} else {
				fmt.Println("-- planner: no offload candidate")
			}
			fmt.Printf("-- Conv %v (%d link pages) | Biscuit %v (%d link pages) | speed-up %.1fx\n\n",
				convT, exC.St.PagesOverLink, biscT, exB.St.PagesOverLink, float64(convT)/float64(biscT))
			if len(conv.Rows) != len(bisc.Rows) {
				fmt.Fprintln(os.Stderr, "WARNING: Conv and Biscuit row counts differ")
			}
			if *explain {
				// The trace now ends with this query's Biscuit run: its
				// "sql.query" span is the last one, so anchor the
				// breakdown there (the Conv run's span precedes it).
				explainQuery(sys.Tracer(), biscT)
			}
		}
	})

	if *traceOut != "" {
		sampler.ExportCounters(sys.Tracer()) // merge counter tracks into the span trace
		if err := sys.Tracer().WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (load in https://ui.perfetto.dev)\n", *traceOut)
	}
	if *stats {
		printStats(os.Stdout, sys)
		printTelemetry(sampler.Summaries())
	}
}

// explainQuery parses the in-memory trace and prints the trace-derived
// sim-time breakdown of the most recent "sql.query" span — the Biscuit
// run that just finished.
func explainQuery(tr *trace.Tracer, biscT sim.Time) {
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		return
	}
	parsed, err := tracestat.Parse(strings.NewReader(buf.String()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		return
	}
	b, err := parsed.CriticalPathNth("sql.query", -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		return
	}
	fmt.Printf("-- explain: query span %v, device-side critical path %v (%.1f%% of the span; Biscuit wall %v)\n",
		sim.Time(b.TotalNs), sim.Time(b.DeviceNs), 100*float64(b.DeviceNs)/float64(b.TotalNs), biscT)
	for _, op := range b.Operators {
		fmt.Printf("--   %-6s %-24s %14v  %5.1f%%\n",
			op.Layer, op.Name, sim.Time(op.Ns), 100*float64(op.Ns)/float64(b.TotalNs))
	}
	fmt.Println()
}

// printTelemetry dumps the sampled series summaries (no-op without
// -sample).
func printTelemetry(sums []telemetry.SeriesSummary) {
	if len(sums) == 0 {
		return
	}
	fmt.Println("-- telemetry")
	for _, s := range sums {
		fmt.Printf("   %-28s samples=%-7d min=%-8d mean=%-8d max=%-8d digest=%s\n",
			s.Name, s.Samples, s.Min, s.Mean, s.Max, s.Digest)
	}
}

// serveMain runs one multi-tenant serving window on an N-device array.
// Tenants are named t1..tM and cycle through the built-in workloads;
// the total offered rate is split evenly. A -fault campaign arms on
// every device of the array. With -heal the self-healing stack runs and
// a die on device 0 dies at 40% of the window, so the health monitor,
// rebuild fiber and (on >1 device) tenant migration all have work.
func serveMain(devices, tenants int, rate float64, windowMs int, policy string, sf float64, seed int64, faultArg, traceOut string, sampleUs int64, rainW int, heal bool) {
	if devices < 1 {
		fmt.Fprintln(os.Stderr, "sqlssd: -devices must be >= 1")
		os.Exit(2)
	}
	if tenants < 1 {
		tenants = 2
	}
	workloads := []string{"q6", "qpoint", "q1"}
	cfg := serve.Config{
		SF:      sf,
		Devices: devices,
		Policy:  policy,
		Window:  sim.Time(windowMs) * sim.Millisecond,
		Seed:    seed,
	}
	if heal {
		cfg.Heal = true
		cfg.Migrate = devices > 1
		cfg.FailAt = cfg.Window * 2 / 5
		cfg.FailDevice = 0
		cfg.FailDie = 1
	}
	plan, err := fault.ParsePlan(faultArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault:", err)
		os.Exit(2)
	}
	// One override on serve's own device config: the -rainW stripe width
	// when given, and the -fault campaign (empty: the fault-free plan).
	cfg.PerDevice = func(_ int, c biscuit.Config) biscuit.Config {
		if rainW > 0 {
			c.FTL.StripeDataPages = rainW
		}
		c.Fault = plan
		return c
	}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
			Name:     fmt.Sprintf("t%d", i+1),
			Workload: workloads[i%len(workloads)],
			RateQPS:  rate / float64(tenants),
		})
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	var tr *trace.Tracer
	if traceOut != "" {
		tr = s.MS.NewTracer()
		s.SetTracer(tr)
	}
	if sampleUs > 0 {
		s.EnableTelemetry(sim.Time(sampleUs) * sim.Microsecond)
	}
	fmt.Printf("TPC-H SF %.3f shard-loaded across %d devices; %d tenants at %.0f qps total, policy %s, %dms window.\n\n",
		sf, devices, tenants, rate, policy, windowMs)
	rep := s.Run()

	fmt.Printf("window %v | completed %d | rejected %d | %.1f queries/s aggregate | dispatch digest %016x\n\n",
		time.Duration(rep.DurationNs), rep.Completed, rep.Rejected, rep.AggThroughputQPS, rep.DispatchDigest)
	fmt.Printf("  %-8s %-8s %-8s %-8s %-8s %-6s %-10s %-10s %-10s %-8s %s\n",
		"tenant", "workload", "offered", "admit", "done", "miss", "p50", "p95", "p99", "qps", "row digest")
	for _, t := range rep.Tenants {
		fmt.Printf("  %-8s %-8s %-8d %-8d %-8d %-6d %-10v %-10v %-10v %-8.1f %016x\n",
			t.Name, t.Workload, t.Offered, t.Admitted, t.Completed, t.DeadlineMisses,
			time.Duration(t.Lat.P50), time.Duration(t.Lat.P95), time.Duration(t.Lat.P99),
			t.ThroughputQPS, t.RowDigest)
	}
	if heal {
		fmt.Printf("\n-- health: %d transitions, digest %016x\n", rep.HealthTransitions, rep.HealthDigest)
		for d := 0; d < devices; d++ {
			fmt.Printf("   ssd%d %s\n", d, s.Monitor.State(d))
		}
		var pages, parity int64
		for _, sys := range s.MS.Systems {
			rb := sys.Plat.FTL.Rebuild()
			pages += rb.Pages
			parity += rb.Parity
		}
		fmt.Printf("   rebuild: %d data pages re-striped, %d parity relocated\n", pages, parity)
		for _, m := range rep.Migrations {
			fmt.Printf("   migrate: %s shard %d ssd%d->ssd%d at %v (after %d dispatches)\n",
				m.Tenant, m.Shard, m.FromDev, m.ToDev, time.Duration(m.AtNs), m.AfterSeq)
		}
	}
	if len(rep.Telemetry) > 0 {
		fmt.Println()
		printTelemetry(rep.Telemetry)
	}
	if traceOut != "" {
		if err := tr.WriteFile(traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (load in https://ui.perfetto.dev)\n", traceOut)
	}
}

// printStats dumps the platform's counter and histogram registries in
// their deterministic (name-sorted) snapshot order, with the FTL's RAIN
// and rebuild statistics after the counters.
func printStats(w io.Writer, sys *biscuit.System) {
	fmt.Fprintln(w, "-- counters")
	for _, c := range sys.Plat.Ctrs.Snapshot() {
		fmt.Fprintf(w, "   %-24s %d\n", c.Name, c.Value)
	}
	fmt.Fprintf(w, "   %-24s %+v\n", "ftl.rain", sys.Plat.FTL.Rain())
	fmt.Fprintf(w, "   %-24s %+v\n", "ftl.rebuild", sys.Plat.FTL.Rebuild())
	fmt.Fprintln(w, "-- latencies")
	for _, s := range sys.Plat.Hists.Snapshot() {
		fmt.Fprintf(w, "   %-24s count=%-8d p50=%-12v p95=%-12v p99=%-12v max=%v\n",
			s.Name, s.Summary.Count,
			time.Duration(s.Summary.P50), time.Duration(s.Summary.P95),
			time.Duration(s.Summary.P99), time.Duration(s.Summary.Max))
	}
}

func printRows(res *sql.Result, maxRows int) {
	fmt.Println(strings.Join(res.Cols, "\t"))
	for i, r := range res.Rows {
		if i >= maxRows {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		parts := make([]string, len(r))
		for c, v := range r {
			parts[c] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
