// Command tracestat checks and analyzes the simulator's Perfetto trace
// exports offline: per-track span aggregates, counter-track
// utilization statistics, and the trace-derived critical path of a
// query window (-crit), attributing every instant to the deepest busy
// layer of the NVMe→FTL→NAND stack.
//
// Usage:
//
//	tracestat [-crit [-root span] [-nth n]] trace.json...
//
// Every file is checked against the export format's rules
// (tracestat.Parse): each violation prints to stderr as
// "tracestat: <path>: <violation>", the valid files are still
// analyzed, and the exit status is 1 if any file was invalid. CI runs
// it over every trace it archives.
//
// Output is plain deterministic text: analyzing byte-identical traces
// prints byte-identical reports.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"biscuit/internal/sim"
	"biscuit/internal/tracestat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	crit := flag.Bool("crit", false, "critical-path analysis of the query window instead of track aggregates")
	root := flag.String("root", "sql.query", "root span name anchoring -crit's window")
	nth := flag.Int("nth", 0, "which root span to analyze when several share the name (0-based; -1 = last)")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: tracestat [-crit [-root span] [-nth n]] trace.json...")
	}
	failed := false
	for _, path := range flag.Args() {
		if err := analyze(path, *crit, *root, *nth); err != nil {
			failed = true
			for _, line := range strings.Split(err.Error(), "\n") {
				log.Printf("%s: %s", path, line)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// analyze checks one file and prints its report; the error carries
// every violation, one per line.
func analyze(path string, crit bool, root string, nth int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := tracestat.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("== %s: %d tracks, %d spans, %d instants, %d counter series, end %v\n",
		path, len(tr.Tracks), len(tr.Spans), tr.Instants, len(tr.Counters), sim.Time(tr.End))
	if crit {
		return printCrit(tr, root, nth)
	}
	printAggregates(tr)
	return nil
}

func printAggregates(tr *tracestat.Trace) {
	fmt.Printf("%-28s %-24s %8s %14s %14s %14s\n", "track", "span", "count", "total", "min", "max")
	for _, a := range tr.Aggregate() {
		fmt.Printf("%-28s %-24s %8d %14v %14v %14v\n",
			a.Track, a.Name, a.Count, sim.Time(a.TotalNs), sim.Time(a.MinNs), sim.Time(a.MaxNs))
	}
	if len(tr.Counters) == 0 {
		return
	}
	fmt.Printf("\n%-40s %8s %10s %10s %12s %10s\n", "counter", "samples", "min", "max", "mean", "last")
	for _, st := range tr.CounterStats() {
		fmt.Printf("%-40s %8d %10d %10d %12.3f %10d\n",
			st.Track, st.Samples, st.Min, st.Max, float64(st.MeanMilli)/1000, st.Last)
	}
}

func printCrit(tr *tracestat.Trace, root string, nth int) error {
	b, err := tr.CriticalPathNth(root, nth)
	if err != nil {
		return err
	}
	fmt.Printf("query %q: %v (start %v, end %v); device-side critical path %v (%.1f%%)\n",
		b.QueryName, sim.Time(b.TotalNs), sim.Time(b.QueryStart), sim.Time(b.QueryEnd),
		sim.Time(b.DeviceNs), pct(b.DeviceNs, b.TotalNs))
	fmt.Println("\nper-layer attribution (deepest busy layer wins each instant):")
	for _, l := range b.Layers {
		fmt.Printf("  %-6s %14v  %5.1f%%\n", l.Layer, sim.Time(l.Ns), pct(l.Ns, b.TotalNs))
	}
	fmt.Println("\nper-operator breakdown (sums to the query span exactly):")
	for _, op := range b.Operators {
		fmt.Printf("  %-6s %-24s %14v  %5.1f%%\n", op.Layer, op.Name, sim.Time(op.Ns), pct(op.Ns, b.TotalNs))
	}
	fmt.Printf("\ncritical path: %d segments\n", len(b.Chain))
	for i, c := range b.Chain {
		if i >= 40 {
			fmt.Printf("  ... %d more segments\n", len(b.Chain)-i)
			break
		}
		fmt.Printf("  %-6s %-24s %14v\n", c.Layer, c.Name, sim.Time(c.Ns))
	}
	return nil
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
