package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"biscuit/internal/stats"
)

// compareLedgers holds ledger b against ledger a, one row per
// (workload, metric):
//
//	exact       sim-clock metric or count, identical
//	DIFFERS     sim-clock metric or count, not identical — counts as worse
//	within      bounded host-clock metric, not worse than a by more than its bound
//	WORSE       bounded host-clock metric, worse than a by more than its bound
//	unresolved  the readings of one side spread wider than the bound, and
//	            the two sides' readings overlap
//	info        host-clock per-layer metric: no bound, shown for the reader
//
// It returns 1 when any row is DIFFERS or WORSE, else 0.
func compareLedgers(pathA, pathB string) int {
	a, b := readLedger(pathA), readLedger(pathB)
	if a.Meta.Seed != b.Meta.Seed {
		fmt.Printf("# seeds differ (%d vs %d): sim-clock rows are expected to differ\n", a.Meta.Seed, b.Meta.Seed)
	}
	type key struct{ workload, metric string }
	rowsB := map[key]ledgerRow{}
	for _, r := range b.Rows {
		rowsB[key{r.Workload, r.Metric}] = r
	}
	bad := 0
	fmt.Printf("%-13s %-30s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, ra := range a.Rows {
		rb, ok := rowsB[key{ra.Workload, ra.Metric}]
		if !ok {
			fmt.Printf("%-13s %-30s %14.6g %14s %8s  DIFFERS (missing from b)\n", ra.Workload, ra.Metric, ra.Value, "-", "-")
			bad++
			continue
		}
		verdict := rowVerdict(ra, rb)
		if verdict == "DIFFERS" || verdict == "WORSE" {
			bad++
		}
		change := 0.0
		if ra.Value != 0 {
			change = 100 * (rb.Value - ra.Value) / ra.Value
		}
		fmt.Printf("%-13s %-30s %14.6g %14.6g %+7.2f%%  %s\n", ra.Workload, ra.Metric, ra.Value, rb.Value, change, verdict)
	}
	if bad > 0 {
		fmt.Printf("# %d rows worse\n", bad)
		return 1
	}
	return 0
}

func rowVerdict(a, b ledgerRow) string {
	sp := specByName[a.Metric]
	if a.Clock != clockHost {
		if a.Value == b.Value {
			return "exact"
		}
		return "DIFFERS"
	}
	if sp.bound == 0 {
		return "info"
	}
	// worse > 0 is how far b's median is on the bad side of a's.
	worse := (b.Value - a.Value) / a.Value
	if sp.better == "higher" {
		worse = -worse
	}
	if max(spread(a.Values), spread(b.Values)) > sp.bound && overlap(a.Values, b.Values) {
		return "unresolved"
	}
	if worse > sp.bound {
		return "WORSE"
	}
	return "within"
}

// spread is the distance between the first and third quartile of xs as
// a share of their median; 0 for fewer than two readings.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// The exclusive method Python's statistics.quantiles defaults to.
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		if pos <= 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / median(s)
}

// overlap reports whether the two sides' readings interleave, i.e.
// neither side reads entirely below the other.
func overlap(a, b []float64) bool {
	minA, maxA := stats.MinMax(a)
	minB, maxB := stats.MinMax(b)
	return maxA >= minB && maxB >= minA
}

func readLedger(path string) ledger {
	var lg ledger
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &lg)
	}
	if err != nil {
		fatal("%s: %v", path, err)
	}
	return lg
}
