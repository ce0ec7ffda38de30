package bench

import (
	"fmt"
	"io"
	"math/rand"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
)

// Fig. 8's two illustration queries over lineitem (taken by the paper
// from the Ibex work):
//
//	Query 1: SELECT l_orderkey, l_shipdate, l_linenumber FROM lineitem
//	         WHERE l_shipdate = '1995-01-17'
//	Query 2: ... WHERE (l_shipdate = '1995-01-17' OR l_shipdate =
//	         '1995-01-18') AND (l_linenumber = 1 OR l_linenumber = 2)

func fig8Pred(ls *db.Schema, query int) db.Expr {
	switch query {
	case 1:
		return db.EqD(ls, "l_shipdate", "1995-01-17")
	case 2:
		return db.AndOf(
			db.OrOf(db.EqD(ls, "l_shipdate", "1995-01-17"), db.EqD(ls, "l_shipdate", "1995-01-18")),
			db.OrOf(
				db.Cmp{Op: db.EQ, L: db.C(ls, "l_linenumber"), R: db.Lit(db.Int(1))},
				db.Cmp{Op: db.EQ, L: db.C(ls, "l_linenumber"), R: db.Lit(db.Int(2))},
			),
		)
	}
	panic("bench: fig8 query must be 1 or 2")
}

// runFig8Query executes one repetition and returns its virtual time and
// result cardinality.
func runFig8Query(h *biscuit.Host, data *tpch.Data, query int, offload bool) (sim.Time, int) {
	ls := data.Lineitem.Sch
	pred := fig8Pred(ls, query)
	ex := db.NewExec(h, data.DB)
	var scan db.Iterator
	if offload {
		it, dec := planner.Default().PlanScan(ex, data.Lineitem, pred)
		if !dec.Offloaded {
			panic("bench: fig8 scan must offload: " + dec.Reason)
		}
		scan = it
	} else {
		scan = ex.NewConvScan(data.Lineitem, pred)
	}
	proj := &db.ProjectOp{Ex: ex, In: scan,
		Exprs: []db.Expr{db.C(ls, "l_orderkey"), db.C(ls, "l_shipdate"), db.C(ls, "l_linenumber")},
		Names: []string{"l_orderkey", "l_shipdate", "l_linenumber"}}
	var n int
	took := timeIt(h, func() {
		rows, err := db.Collect(proj)
		must("fig8 query", err)
		ex.FlushCost()
		n = len(rows)
	})
	return took, n
}

// Fig8Series holds the repetitions for one (query, mode) pair.
type Fig8Series struct {
	Times   []sim.Time
	MeanS   float64
	CI95S   float64
	RowsOut int
}

func series(ts []sim.Time, rows int) Fig8Series {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = t.Seconds()
	}
	return Fig8Series{Times: ts, MeanS: stats.Mean(xs), CI95S: stats.CI95(xs), RowsOut: rows}
}

// Fig8 reproduces Fig. 8: repeated executions of both queries under
// both systems, with 95% confidence intervals. Lat carries the whole
// run's latency distributions — the per-scan digests ("db.scan.conv",
// "db.scan.ndp") decompose the error bars the series report.
type Fig8 struct {
	Q1Conv, Q1Biscuit Fig8Series
	Q2Conv, Q2Biscuit Fig8Series

	Lat []stats.NamedSummary `json:"lat"`
}

// paperFig8 is Fig. 8's two speed-ups as read off the figure.
var paperFig8 = struct{ Q1, Q2 float64 }{Q1: 11, Q2: 10}

// WriteMarkdown renders both queries beside the paper's speed-ups.
func (f Fig8) WriteMarkdown(w io.Writer) {
	ci := func(s Fig8Series) string { return num(s.MeanS) + " ± " + num(s.CI95S) }
	row := func(name string, conv, bisc Fig8Series, paper float64) []string {
		return []string{name, ci(conv), ci(bisc), times(conv.MeanS / bisc.MeanS), fmt.Sprint(conv.RowsOut), times(paper)}
	}
	table(w, []string{fmt.Sprintf("s, mean ± 95 %% CI of %d runs", len(f.Q1Conv.Times)), "Conv", "Biscuit", "speed-up", "rows", "paper speed-up"},
		row("Query 1", f.Q1Conv, f.Q1Biscuit, paperFig8.Q1), row("Query 2", f.Q2Conv, f.Q2Biscuit, paperFig8.Q2))
}

// fig8Reps is the repetition count behind Fig. 8's error bars.
func (c Config) fig8Reps() int {
	if c.quick {
		return 3
	}
	return 10
}

// RunFig8 loads TPC-H once and repeats each query fig8Reps times.
// Between repetitions a small random ambient load (0-3 background
// threads) models the OS activity that made the paper's Conv runs "vary
// significantly ... depending on CPU and cache utilization" while
// Biscuit runs stayed consistent.
func RunFig8(cfg Config) Fig8 {
	var out Fig8
	sys := newSystem()
	data := loadTPCH(sys, cfg.SF)
	rng := rand.New(rand.NewSource(seed))
	sys.Run(func(h *biscuit.Host) {
		plat := h.System().Plat
		run := func(query int, offload bool) Fig8Series {
			// Warmup: loads the NDP module and touches the catalog so
			// measured repetitions see steady state.
			runFig8Query(h, data, query, offload)
			var ts []sim.Time
			rows := 0
			for rep := 0; rep < cfg.fig8Reps(); rep++ {
				plat.SetHostLoad(rng.Intn(4)) // ambient system noise
				t, n := runFig8Query(h, data, query, offload)
				ts = append(ts, t)
				rows = n
			}
			plat.SetHostLoad(0)
			return series(ts, rows)
		}
		out.Q1Conv = run(1, false)
		out.Q1Biscuit = run(1, true)
		out.Q2Conv = run(2, false)
		out.Q2Biscuit = run(2, true)
		if out.Q1Conv.RowsOut != out.Q1Biscuit.RowsOut || out.Q2Conv.RowsOut != out.Q2Biscuit.RowsOut {
			panic("bench: fig8 result cardinality mismatch between Conv and Biscuit")
		}
	})
	out.Lat = sys.Plat.Hists.Snapshot()
	return out
}
