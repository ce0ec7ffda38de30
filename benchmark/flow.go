//biscuitvet:walltime-ok the flow times set-up and batches on the host clock; that is what it is for

package main

import (
	"runtime"
	"time"

	"biscuit"
)

const setupBudget = 3 * time.Second

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// build makes fresh platforms and loads the data the seed
	// generates. Its wall time is one setup_s sample.
	build func(c *ctx) state
}

// state is a built workload.
type state interface {
	// reference runs the untimed oracle the checks compare against.
	reference(c *ctx)
	// batch runs one batch of ops. obs is nil except in the counted
	// pass, where the batch attaches it to the platform it drives.
	batch(c *ctx, obs *observer) batchOut
	// report turns the batches into the workload's own metrics and
	// correctness checks. counted is nil in the untraced flow.
	report(c *ctx, r *result, untraced []batchOut, counted *batchOut)
}

// batchOut is what one batch of ops measured.
type batchOut struct {
	ops, failed int
	measured              // wall and allocation of the timed region only
	simNs       int64     // sim time the timed region took
	setup       *measured // a platform build the batch had to do first: one more setup_s sample
	// The counted pass only: the counts and the devices they were read
	// from. An untraced batch must not keep its platforms alive.
	counts counts
	sys    []*biscuit.System
}

// runFlow runs one workload once: set-up, reference, untraced batches
// until the budget is spent, and — in the traced flow — one more batch under
// the tracer, the scheduler hook and the span recorder. The end-to-end
// metrics never read that last batch.
func runFlow(c *ctx, w workload) *result {
	r := newResult(w.name)
	var st state
	var setups []measured
	// At least setupReps builds, and more of a cheap one (up to 20,
	// while they fit in setupBudget), so that the median is as steady
	// on a 60 ms build as on a 700 ms one.
	for i, start := 0, time.Now(); i < c.sc.setupReps || (c.rec == nil && i < 20 && time.Since(start) < setupBudget); i++ {
		st = nil // let the previous build go before timing the next
		runtime.GC()
		c.rec.do("setup", func() {
			m := startMeter()
			st = w.build(c)
			setups = append(setups, m.stop())
		})
	}
	r.put("live_heap_mb", liveHeapMB(), 1)

	c.rec.do("reference", func() { st.reference(c) })

	var outs []batchOut
	start := time.Now()
	for len(outs) < c.sc.minBatches || time.Since(start) < c.budget {
		outs = append(outs, st.batch(c, nil))
	}
	var perOp, rawPerOp, clocks []float64
	var ops int
	var bytes, mallocs uint64
	for _, o := range outs {
		perOp = append(perOp, o.refMs()/float64(o.ops))
		rawPerOp = append(rawPerOp, ms(o.wall)/float64(o.ops))
		clocks = append(clocks, o.clockGHz())
		ops += o.ops
		bytes += o.bytes
		mallocs += o.mallocs
		r.attempted += o.ops
		r.failed += o.failed
		if o.setup != nil {
			setups = append(setups, *o.setup)
		}
	}
	r.put("ref_ms_per_op", median(perOp), len(perOp))
	r.put("wall_ms_per_op", median(rawPerOp), len(rawPerOp))
	r.put("host.clock_ghz", median(clocks), len(clocks))
	r.put("alloc_mb_per_op", float64(bytes)/mb/float64(ops), ops)
	r.put("allocs_per_op", float64(mallocs)/float64(ops), ops)
	// Set-up is scaled to the reference clock like the ops; read here,
	// the builds between batches have their later probes too.
	var setupS []float64
	for _, m := range setups {
		setupS = append(setupS, m.refMs()/1e3)
	}
	r.put("setup_s", median(setupS), len(setupS))
	// Sim time is read from the first batch only: it follows the
	// reference on a fresh build whatever the budget, so the value does
	// not depend on how many batches the host had time for.
	r.put("sim_ms_per_op", float64(outs[0].simNs)/1e6/float64(outs[0].ops), outs[0].ops)

	var counted *batchOut
	if c.rec != nil {
		obs := &observer{}
		var o batchOut
		c.rec.do("batch.traced", func() { o = st.batch(c, obs) })
		counted = &o
		r.putCounts(o.counts, obs.events, o.ops, median(rawPerOp), o.sys)
		r.put("trace.overhead_pct", 100*(o.refMs()/float64(o.ops)/median(perOp)-1), 1)
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		r.put("runtime.heap_sys_mb", float64(m.HeapSys)/mb, 1)
		r.put("runtime.gc_cycles", float64(m.NumGC), 1)
		r.put("runtime.gc_pause_ms", float64(m.PauseTotalNs)/1e6, int(m.NumGC))
	}
	st.report(c, r, outs, counted)
	return r
}
