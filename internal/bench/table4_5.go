package bench

import (
	"fmt"

	"biscuit"
	"biscuit/internal/graph"
	"biscuit/internal/loadgen"
	"biscuit/internal/sim"
	"biscuit/internal/weblog"
)

// LoadSweepRow is one background-load level of Tables IV and V.
type LoadSweepRow struct {
	Threads       int
	Conv, Biscuit sim.Time
}

// Table4 reproduces Table IV: pointer-chasing execution time vs
// StreamBench load.
type Table4 struct {
	Rows []LoadSweepRow
}

// loadSweepSizes sizes Tables IV and V: the traversal (nodes, walks,
// hops), the web-log corpus, and the background-thread sweep both
// tables share.
type loadSweepSizes struct {
	graphNodes, walks, hops int
	weblogBytes             int64
	loads                   []int
}

func (c Config) loadSweepSizes() loadSweepSizes {
	if c.quick {
		return loadSweepSizes{graphNodes: 2000, walks: 10, hops: 20, weblogBytes: 4 << 20, loads: []int{0, 24}}
	}
	return loadSweepSizes{graphNodes: 20000, walks: 50, hops: 60, weblogBytes: 24 << 20, loads: []int{0, 6, 12, 18, 24}}
}

// RunTable4 generates the graph once and sweeps the load levels.
func RunTable4(cfg Config) Table4 {
	var out Table4
	sz := cfg.loadSweepSizes()
	sys := newSystem()
	sys.Install(graph.Image())
	sys.Run(func(h *biscuit.Host) {
		s, err := graph.Generate(h, sz.graphNodes, biscuit.SeededRand(seed))
		if err != nil {
			panic(err)
		}
		lg := loadgen.New(h.System().Plat)
		for _, threads := range sz.loads {
			lg.Start(threads)
			row := LoadSweepRow{Threads: threads}
			row.Conv = timeIt(h, func() {
				if _, err := s.ChaseConv(h, sz.walks, sz.hops, biscuit.SeededRand(seed)); err != nil {
					panic(err)
				}
			})
			row.Biscuit = timeIt(h, func() {
				if _, err := s.ChaseNDP(h, sz.walks, sz.hops, seed); err != nil {
					panic(err)
				}
			})
			out.Rows = append(out.Rows, row)
		}
		lg.Stop()
	})
	return out
}

// Table5 reproduces Table V: string-search execution time vs load.
type Table5 struct {
	Rows    []LoadSweepRow
	Matches int64
}

// RunTable5 generates the web log once and sweeps the load levels.
func RunTable5(cfg Config) Table5 {
	var out Table5
	sz := cfg.loadSweepSizes()
	sys := newSystem()
	sys.Run(func(h *biscuit.Host) {
		const needle = "XNEEDLEX"
		if _, _, err := weblog.Generate(h, sz.weblogBytes, needle, 1000, biscuit.SeededRand(seed)); err != nil {
			panic(err)
		}
		lg := loadgen.New(h.System().Plat)
		for _, threads := range sz.loads {
			lg.Start(threads)
			row := LoadSweepRow{Threads: threads}
			var convN, ndpN int64
			row.Conv = timeIt(h, func() {
				n, err := weblog.SearchConv(h, needle)
				if err != nil {
					panic(err)
				}
				convN = n
			})
			row.Biscuit = timeIt(h, func() {
				n, err := weblog.SearchNDP(h, needle)
				if err != nil {
					panic(err)
				}
				ndpN = n
			})
			if convN != ndpN {
				panic(fmt.Sprintf("bench: search disagreement conv=%d ndp=%d", convN, ndpN))
			}
			out.Matches = convN
			out.Rows = append(out.Rows, row)
		}
		lg.Stop()
	})
	return out
}
