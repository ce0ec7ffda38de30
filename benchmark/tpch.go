package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
	"biscuit/internal/trace"
)

// paperTPCHSpeedup is Fig. 10's geometric-mean speed-up over the
// offloaded queries.
const paperTPCHSpeedup = 6.1

var tpchSuite = workload{
	name:  "tpch_suite",
	why:   "Fig. 10: 22 TPC-H queries under the offload planner; 14 take the Conv read path + decode/join/agg, 8 go through matcher + ports, so every layer does a little",
	build: func(c *ctx) state { return buildTPCH(c) },
}

// queryOut is one query's outcome in one pass.
type queryOut struct {
	id int
	measured
	simNs     int64
	rows      int
	digest    uint64 // FNV-1a over the printed form of every value, row by row
	offloaded bool
	st        db.Stats
}

type tpchState struct {
	sys   *biscuit.System
	data  *tpch.Data
	order []int // the seed's permutation of the 22 queries

	conv    []queryOut   // the reference pass
	passes  [][]queryOut // untraced Biscuit passes, in order
	counted []queryOut   // the counted pass
	// crit holds the counted pass's sim tracers of Q1 and Q6, by query id.
	crit map[int]*trace.Tracer
}

// datasetSeed generates tpch_suite's database whatever -seed says; the
// seed shuffles the order the queries run in instead. The planner
// decides from 24 sampled pages against a 0.25 threshold, and three of
// the suite's scans (key "1994-", true page selectivity about 0.2) sit
// so close to it that a database from another seed flips them — and
// with them Q12 from 0.6 s to 3.4 s of host time — on four seeds in
// ten. A benchmark whose cost has two modes in the seed resolves
// nothing, so the data is held and the plan with it.
const datasetSeed = 1

func buildTPCH(c *ctx) *tpchState {
	st := &tpchState{order: biscuit.SeededRand(c.seed).Perm(len(tpch.All()))}
	c.rec.do("setup.build", func() {
		st.sys = biscuit.NewSystem(c.sc.benchConfig())
	})
	c.rec.do("setup.load", func() {
		st.data = loadTPCH(st.sys, c.sc.tpchSF, datasetSeed)
	})
	return st
}

func loadTPCH(sys *biscuit.System, sf float64, seed int64) *tpch.Data {
	var data *tpch.Data
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		var err error
		data, err = tpch.Gen{SF: sf}.Load(h, d, biscuit.SeededRand(seed))
		if err != nil {
			panic(fmt.Sprintf("tpch load: %v", err))
		}
	})
	return data
}

func (st *tpchState) systems() []*biscuit.System { return []*biscuit.System{st.sys} }

// pass runs the 22 queries once, in the seed's order, and returns their
// outcomes by query id. With offload set each query plans its
// scans through the paper's planner (Biscuit mode); without, it is the
// Conv baseline. When counted, every query gets its own sim tracer and
// a root span, and Q1's and Q6's tracers are kept for tracestat.
func (st *tpchState) pass(c *ctx, offload, counted bool) []queryOut {
	all := tpch.All()
	out := make([]queryOut, len(all))
	st.sys.Run(func(h *biscuit.Host) {
		for _, at := range st.order {
			q := all[at]
			ex := db.NewExec(h, st.data.DB)
			ex.JoinBufferRows = c.sc.joinBuffer
			qc := &tpch.QCtx{Ex: ex, D: st.data}
			if offload {
				// The planner's sampling stream is the program's own
				// (its calibrated default seed), not a generated input.
				qc.Pl = planner.Default()
			}
			var tr *trace.Tracer
			if counted {
				tr = st.sys.NewTracer()
				if q.ID == 1 || q.ID == 6 {
					st.crit[q.ID] = tr
				}
			}
			var rows []db.Row
			var got measured
			var simNs int64
			c.rec.do("op", func() {
				m, s0 := startMeter(), h.Now()
				root := tr.Begin(tr.Track(rootTrack), rootSpan)
				var err error
				rows, err = q.Run(qc)
				if err != nil {
					panic(fmt.Sprintf("tpch_suite: Q%d: %v", q.ID, err))
				}
				ex.FlushCost()
				root.End()
				got, simNs = m.stop(), int64(h.Now()-s0)
			})
			d := fnv.New64a()
			for _, r := range rows {
				for _, v := range r {
					d.Write([]byte(v.String()))
					d.Write([]byte{0xff}) // value separator
				}
			}
			out[at] = queryOut{id: q.ID, measured: got, simNs: simNs, rows: len(rows),
				digest: d.Sum64(), offloaded: qc.Offloaded, st: ex.St}
		}
	})
	return out
}

func (st *tpchState) reference(c *ctx) { st.conv = st.pass(c, false, false) }

func (st *tpchState) batch(c *ctx, obs *observer) batchOut {
	counted := obs != nil
	var before counts
	if counted {
		st.crit = map[int]*trace.Tracer{}
		obs.hook(st.sys.Env)
		before = snapshot(st.systems())
	}
	qs := st.pass(c, true, counted)
	o := batchOut{ops: len(qs)}
	if counted {
		o.sys = st.systems()
		o.counts = snapshot(st.systems()).minus(before)
		detachSystem(st.sys)
		st.counted = qs
	} else {
		st.passes = append(st.passes, qs)
	}
	for i, q := range qs {
		// Every query is its own timed region, which puts a clock probe
		// between every two queries of the pass.
		o.measured = o.measured.plus(q.measured)
		o.simNs += q.simNs
		if q.digest != st.conv[i].digest {
			o.failed++
		}
	}
	return o
}

func (st *tpchState) report(c *ctx, r *result, untraced []batchOut, counted *batchOut) {
	passes := st.passes
	if counted != nil {
		passes = append(passes[:len(passes):len(passes)], st.counted)
	}
	conv := st.conv
	if c.corruptRef {
		conv = append([]queryOut(nil), conv...)
		conv[0].digest++
	}
	mismatched, unstable := 0, 0
	for _, qs := range passes {
		for i, q := range qs {
			if q.digest != conv[i].digest || q.rows != conv[i].rows {
				mismatched++
			}
			if q.digest != passes[0][i].digest {
				unstable++
			}
		}
	}
	r.check("tpch_suite.ndp_equals_conv", mismatched == 0, "%d query results differ from the Conv reference", mismatched)
	r.check("tpch_suite.passes_agree", unstable == 0, "%d query results differ between passes", unstable)

	first := st.passes[0]
	var speedups []float64
	offloaded := 0
	for i, q := range first {
		r.pin(fmt.Sprintf("q%02d.digest", q.id), "%016x", q.digest)
		if q.offloaded {
			offloaded++
			speedups = append(speedups, float64(st.conv[i].simNs)/float64(q.simNs))
		}
	}
	r.put("planner.offloaded_queries", float64(offloaded), len(first))
	if len(speedups) > 0 {
		g := stats.GeoMean(speedups)
		r.put("sim_speedup_vs_conv", g, len(speedups))
		r.put("paper_err_pct", 100*math.Abs(g-paperTPCHSpeedup)/paperTPCHSpeedup, len(speedups))
	}
	r.put("failed_ops_share", float64(r.failed)/float64(r.attempted), r.attempted)

	for _, id := range []int{1, 6, 12, 14} {
		var walls []float64
		for _, qs := range st.passes {
			walls = append(walls, ms(qs[id-1].wall))
		}
		r.put(fmt.Sprintf("tpch_suite.q%02d_wall_ms", id), median(walls), len(walls))
	}

	if counted == nil {
		return
	}
	var sum db.Stats
	results := 0
	for _, q := range st.counted {
		sum.PagesInternal += q.st.PagesInternal
		sum.RowsScanned += q.st.RowsScanned
		results += q.rows
	}
	n := len(st.counted)
	r.put("db.pages_internal_per_op", float64(sum.PagesInternal)/float64(n), n)
	r.put("db.rows_scanned_per_op", float64(sum.RowsScanned)/float64(n), n)
	r.put("db.rows_examined_per_result", float64(sum.RowsScanned)/float64(results), results)
	r.putCrit("q01", st.crit[1])
	r.putCrit("q06", st.crit[6])
	tpchKernels(c, r, st)
}
