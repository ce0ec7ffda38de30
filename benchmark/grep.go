package main

import (
	"fmt"
	"math"

	"biscuit"
	"biscuit/internal/weblog"
)

// paperGrepSpeedup is Table V's unloaded-host speed-up.
const paperGrepSpeedup = 5.3

const grepNeedle = "XNEEDLEX"

var weblogGrep = workload{
	name:  "weblog_grep",
	why:   "Table V: one NDP string search over a 64 MiB log; the matcher does nearly all the host work and db none, so a matcher change shows at full size and a decode change must show nothing",
	build: func(c *ctx) state { return buildGrep(c) },
}

type grepState struct {
	sys     *biscuit.System
	bytes   int64
	planted int64

	convCount int64
	convSimNs int64
	ndpCounts []int64 // one per op, untraced then counted
}

func buildGrep(c *ctx) *grepState {
	st := &grepState{}
	c.rec.do("setup.build", func() {
		st.sys = biscuit.NewSystem(c.sc.grepConfig())
	})
	c.rec.do("setup.load", func() {
		st.sys.Run(func(h *biscuit.Host) {
			var err error
			st.bytes, st.planted, err = weblog.Generate(h, c.sc.grepBytes, grepNeedle, c.sc.needleEvery, biscuit.SeededRand(c.seed))
			if err != nil {
				panic(fmt.Sprintf("weblog_grep: generate: %v", err))
			}
		})
	})
	return st
}

func (st *grepState) systems() []*biscuit.System { return []*biscuit.System{st.sys} }

func (st *grepState) reference(c *ctx) {
	took := st.sys.Run(func(h *biscuit.Host) {
		n, err := weblog.SearchConv(h, grepNeedle)
		if err != nil {
			panic(fmt.Sprintf("weblog_grep: SearchConv: %v", err))
		}
		st.convCount = n
	})
	st.convSimNs = int64(took)
}

func (st *grepState) batch(c *ctx, obs *observer) batchOut {
	var before counts
	if obs != nil {
		obs.attachSystem(st.sys)
		before = snapshot(st.systems())
	}
	var n int64
	var simNs int64
	m := startMeter()
	c.rec.do("op", func() {
		simNs = int64(st.sys.Run(func(h *biscuit.Host) {
			var err error
			if n, err = weblog.SearchNDP(h, grepNeedle); err != nil {
				panic(fmt.Sprintf("weblog_grep: SearchNDP: %v", err))
			}
		}))
	})
	o := batchOut{ops: 1, measured: m.stop(), simNs: simNs}
	if obs != nil {
		o.sys = st.systems()
		o.counts = snapshot(st.systems()).minus(before)
		detachSystem(st.sys)
	}
	if n != st.convCount {
		o.failed = 1
	}
	st.ndpCounts = append(st.ndpCounts, n)
	return o
}

func (st *grepState) report(c *ctx, r *result, untraced []batchOut, counted *batchOut) {
	conv := st.convCount
	if c.corruptRef {
		conv++
	}
	wrong := 0
	for _, n := range st.ndpCounts {
		if n != conv || n != st.planted {
			wrong++
		}
	}
	r.check("weblog_grep.counts_agree", wrong == 0 && conv == st.planted,
		"planted %d, Conv found %d, %d of %d NDP searches disagree", st.planted, conv, wrong, len(st.ndpCounts))
	r.pin("planted", "%d", st.planted)
	r.pin("corpus_bytes", "%d", st.bytes)

	speedup := float64(st.convSimNs) / float64(untraced[0].simNs)
	r.put("sim_speedup_vs_conv", speedup, 1)
	r.put("paper_err_pct", 100*math.Abs(speedup-paperGrepSpeedup)/paperGrepSpeedup, 1)
	r.put("failed_ops_share", float64(r.failed)/float64(r.attempted), r.attempted)
	if counted != nil {
		grepKernels(c, r, st)
	}
}
