package bench

import (
	"fmt"
	"io"
	"slices"

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

// writeSweep renders a load sweep beside the paper's, one row per load
// level; Conv's slowdown is over its first (unloaded) level.
func writeSweep(w io.Writer, corner string, rows, paper []LoadSweepRow) {
	cells := func(src []LoadSweepRow, threads int) []string {
		i := slices.IndexFunc(src, func(s LoadSweepRow) bool { return s.Threads == threads })
		if i < 0 {
			return []string{"—", "—", "—", "—"}
		}
		s := src[i]
		return []string{num(s.Conv.Seconds()), num(s.Biscuit.Seconds()), times(ratio(s.Conv, s.Biscuit)), times(ratio(s.Conv, src[0].Conv))}
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, slices.Concat([]string{fmt.Sprint(r.Threads)}, cells(rows, r.Threads), cells(paper, r.Threads)))
	}
	table(w, []string{corner, "Conv (s)", "Biscuit (s)", "gain", "Conv slowdown",
		"paper Conv (s)", "paper Biscuit (s)", "paper gain", "paper Conv slowdown"}, out...)
}

// Table4 reproduces Table IV: pointer-chasing execution time vs
// StreamBench load.
type Table4 struct {
	Rows []LoadSweepRow
}

// paperTable4 is Table IV as the paper prints it (no 6 or 12 threads).
var paperTable4 = Table4{Rows: []LoadSweepRow{
	{0, sim.FromSeconds(138.6), sim.FromSeconds(124.4)}, {18, sim.FromSeconds(154.9), sim.FromSeconds(123.9)},
	{24, sim.FromSeconds(155.0), sim.FromSeconds(123.5)},
}}

// WriteMarkdown renders the sweep beside the paper's.
func (t Table4) WriteMarkdown(w io.Writer) { writeSweep(w, "#threads", t.Rows, paperTable4.Rows) }

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
		must("table4: graph", err)
		lg := loadgen.New(h.System().Plat)
		for _, threads := range sz.loads {
			lg.Start(threads)
			row := LoadSweepRow{Threads: threads}
			row.Conv = timeIt(h, func() {
				_, err := s.ChaseConv(h, sz.walks, sz.hops, biscuit.SeededRand(seed))
				must("table4: Conv chase", err)
			})
			row.Biscuit = timeIt(h, func() {
				_, err := s.ChaseNDP(h, sz.walks, sz.hops, seed)
				must("table4: NDP chase", err)
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

// paperTable5 is Table V as the paper prints it.
var paperTable5 = Table5{Rows: []LoadSweepRow{
	{0, sim.FromSeconds(12.2), sim.FromSeconds(2.3)}, {6, sim.FromSeconds(14.8), sim.FromSeconds(2.3)},
	{12, sim.FromSeconds(16.3), sim.FromSeconds(2.3)}, {18, sim.FromSeconds(18.8), sim.FromSeconds(2.3)},
	{24, sim.FromSeconds(19.9), sim.FromSeconds(2.4)},
}}

// WriteMarkdown renders the sweep beside the paper's.
func (t Table5) WriteMarkdown(w io.Writer) {
	writeSweep(w, fmt.Sprintf("#threads (%d matches)", t.Matches), t.Rows, paperTable5.Rows)
}

// needle is the keyword planted in the web log and searched for.
const needle = "XNEEDLEX"

// genLog writes an n-byte web log with needle planted every 1000 lines.
func genLog(h *biscuit.Host, n int64) {
	_, _, err := weblog.Generate(h, n, needle, 1000, biscuit.SeededRand(seed))
	must("web log", err)
}

// searchBoth times the search for needle on the host path and on the
// pattern matcher, and returns the match count the two must agree on.
func searchBoth(h *biscuit.Host) (conv, ndp sim.Time, matches int64) {
	var ndpN int64
	var err error
	conv = timeIt(h, func() { matches, err = weblog.SearchConv(h, needle) })
	must("Conv search", err)
	ndp = timeIt(h, func() { ndpN, err = weblog.SearchNDP(h, needle) })
	must("NDP search", err)
	if matches != ndpN {
		panic(fmt.Sprintf("bench: search disagreement conv=%d ndp=%d", matches, ndpN))
	}
	return conv, ndp, matches
}

// RunTable5 generates the web log once and sweeps the load levels.
func RunTable5(cfg Config) Table5 {
	var out Table5
	sz := cfg.loadSweepSizes()
	sys := newSystem()
	sys.Run(func(h *biscuit.Host) {
		genLog(h, sz.weblogBytes)
		lg := loadgen.New(h.System().Plat)
		for _, threads := range sz.loads {
			lg.Start(threads)
			row := LoadSweepRow{Threads: threads}
			row.Conv, row.Biscuit, out.Matches = searchBoth(h)
			out.Rows = append(out.Rows, row)
		}
		lg.Stop()
	})
	return out
}
