package bench

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
)

// Fig10Row is one TPC-H query's outcome.
type Fig10Row struct {
	Query       int
	Title       string
	ConvTime    sim.Time
	BiscTime    sim.Time
	Speedup     float64
	IOReduction float64 // pages over the host link, Conv / Biscuit
	Offloaded   bool
	Reason      string // planner decision summary
	Rows        int
}

// Fig10 reproduces Fig. 10 plus the surrounding §V-C aggregates. Lat
// digests every latency histogram the 22-query sweep touched, down to
// per-scan durations and NAND-level metrics.
type Fig10 struct {
	Rows []Fig10Row

	OffloadedCount int
	GeoMeanOff     float64 // geometric-mean speed-up of offloaded queries
	TopFiveMean    float64 // arithmetic mean of the five largest speed-ups
	TotalConvS     float64
	TotalBiscS     float64
	TotalSpeedup   float64

	Lat []stats.NamedSummary `json:"lat"`
}

// paperFig10 is Fig. 10 and §V-C as the paper reports them.
var paperFig10 = Fig10{
	Rows:           []Fig10Row{{Query: 14, Speedup: 166.8, IOReduction: 315}},
	OffloadedCount: 8, GeoMeanOff: 6.1, TopFiveMean: 15.4, TotalSpeedup: 3.6,
}

// WriteMarkdown renders every query, then the aggregates beside the paper's.
func (f Fig10) WriteMarkdown(w io.Writer) {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{"Q" + strconv.Itoa(r.Query), r.Title, num(r.ConvTime.Seconds()), num(r.BiscTime.Seconds()),
			times(r.Speedup), times(r.IOReduction), r.Reason})
	}
	table(w, []string{"query", "title", "Conv (s)", "Biscuit (s)", "speed-up", "I/O red.", "planner decision"}, rows...)
	fmt.Fprintln(w)

	agg := func(name string, f Fig10, format func(float64) string) []string {
		b := slices.MaxFunc(f.Rows, func(a, b Fig10Row) int { return cmp.Compare(a.Speedup, b.Speedup) })
		return []string{name, format(float64(f.OffloadedCount)), times(f.GeoMeanOff), times(f.TopFiveMean), times(f.TotalSpeedup),
			format(f.TotalConvS) + " / " + format(f.TotalBiscS), fmt.Sprintf("Q%d: %s (%s I/O red.)", b.Query, times(b.Speedup), times(b.IOReduction))}
	}
	table(w, []string{"aggregate", "offloaded", "geomean speed-up, offloaded", "top-five mean", "whole suite", "whole suite, Conv / Biscuit (s)", "best query"},
		agg("paper", paperFig10, paperNum), agg("measured", f, num))
}

// RunFig10 loads TPC-H once and runs all 22 queries under both systems.
func RunFig10(cfg Config) Fig10 {
	var out Fig10
	sys := newSystem()
	data := loadTPCH(sys, cfg.SF)
	sys.Run(func(h *biscuit.Host) {
		for _, query := range tpch.All() {
			row := Fig10Row{Query: query.ID, Title: query.Title}

			convRows, convTime, exC := timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) {
				return query.Run(&tpch.QCtx{Ex: ex, D: data})
			})
			qcB := &tpch.QCtx{D: data, Pl: planner.Default()}
			biscRows, biscTime, exB := timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) {
				qcB.Ex = ex
				return query.Run(qcB)
			})
			if !slices.EqualFunc(convRows, biscRows, func(c, b db.Row) bool { return slices.EqualFunc(c, b, db.Equal) }) {
				panic("bench: fig10 result mismatch on Q" + strconv.Itoa(query.ID))
			}
			row.ConvTime, row.BiscTime = convTime, biscTime
			row.Rows = len(convRows)
			row.Offloaded = qcB.Offloaded
			if len(qcB.Decisions) != 1 {
				panic(fmt.Sprintf("bench: fig10 Q%d made %d planner decisions, want exactly one", query.ID, len(qcB.Decisions)))
			}
			row.Reason = qcB.Decisions[0].Reason
			if !row.Offloaded {
				// Non-offloaded queries run the identical plan; the
				// paper reports their relative performance as exactly
				// 1.0. Use the Conv time for both columns so planner
				// sampling noise does not masquerade as a difference.
				row.BiscTime = row.ConvTime
			}
			row.Speedup = float64(row.ConvTime) / float64(row.BiscTime)
			cl, bl := exC.St.PagesOverLink, exB.St.PagesOverLink
			if row.Offloaded && bl > 0 {
				row.IOReduction = float64(cl) / float64(bl)
			} else {
				row.IOReduction = 1
			}
			out.Rows = append(out.Rows, row)
			out.TotalConvS += row.ConvTime.Seconds()
			out.TotalBiscS += row.BiscTime.Seconds()
		}
	})

	var offSpeedups, all []float64
	for _, r := range out.Rows {
		all = append(all, r.Speedup)
		if r.Offloaded {
			out.OffloadedCount++
			offSpeedups = append(offSpeedups, r.Speedup)
		}
	}
	out.GeoMeanOff = stats.GeoMean(offSpeedups)
	// Top five of all queries (the paper's "top five" are the five
	// largest observed speed-ups).
	top := slices.Clone(all)
	slices.Sort(top)
	slices.Reverse(top)
	if len(top) > 5 {
		top = top[:5]
	}
	out.TopFiveMean = stats.Mean(top)
	if out.TotalBiscS > 0 {
		out.TotalSpeedup = out.TotalConvS / out.TotalBiscS
	}
	out.Lat = sys.Plat.Hists.Snapshot()
	return out
}
