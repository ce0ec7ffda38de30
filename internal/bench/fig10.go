package bench

import (
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

// RunFig10 loads TPC-H once and runs all 22 queries under both systems.
func RunFig10(cfg Config) Fig10 {
	var out Fig10
	sys := newSystem()
	d := db.Open(sys)
	var data *tpch.Data
	sys.Run(func(h *biscuit.Host) {
		var err error
		data, err = tpch.Gen{SF: cfg.Fig10SF}.Load(h, d, biscuit.SeededRand(seed))
		if err != nil {
			panic(err)
		}
	})
	sys.Run(func(h *biscuit.Host) {
		for _, query := range tpch.All() {
			row := Fig10Row{Query: query.ID, Title: query.Title}

			exC := db.NewExec(h, data.DB)
			exC.JoinBufferRows = cfg.JoinBufferRows
			qcC := &tpch.QCtx{Ex: exC, D: data}
			var convRows []db.Row
			row.ConvTime = timeIt(h, func() {
				var err error
				convRows, err = query.Run(qcC)
				if err != nil {
					panic(err)
				}
				exC.FlushCost()
			})

			exB := db.NewExec(h, data.DB)
			exB.JoinBufferRows = cfg.JoinBufferRows
			qcB := &tpch.QCtx{Ex: exB, D: data, Pl: planner.Default()}
			var biscRows []db.Row
			row.BiscTime = timeIt(h, func() {
				var err error
				biscRows, err = query.Run(qcB)
				if err != nil {
					panic(err)
				}
				exB.FlushCost()
			})

			if len(convRows) != len(biscRows) {
				panic("bench: fig10 result mismatch on Q" + itoa(query.ID))
			}
			row.Rows = len(convRows)
			row.Offloaded = qcB.Offloaded
			for _, dec := range qcB.Decisions {
				row.Reason = dec.Reason
			}
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
	top := append([]float64(nil), all...)
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[i] {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	if len(top) > 5 {
		top = top[:5]
	}
	out.TopFiveMean = stats.Mean(top)
	if out.TotalBiscS > 0 {
		out.TotalSpeedup = out.TotalConvS / out.TotalBiscS
	}
	out.Lat = latencies(sys)
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
