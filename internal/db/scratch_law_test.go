package db_test

import (
	"fmt"
	"slices"
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/fault"
	"biscuit/internal/sim"
	"biscuit/internal/tpch"
)

// queryRun is what one query returned and cost.
type queryRun struct {
	rows []db.Row
	err  string
	st   db.Stats
	took sim.Time
}

// runSuite loads TPC-H at SF 0.002 under plan and runs queries back to
// back on one Database, planned by the offload planner at the given batch
// size. A non-nil reset runs before each query: db.DropScratch starts it
// on an empty scratch, as on a Database of its own; the simulated system
// is the same either way.
func runSuite(t *testing.T, plan fault.Plan, batch int, queries []tpch.Query, reset func(*db.Database)) ([]queryRun, *db.Database) {
	t.Helper()
	sys, d := suiteSystem(plan)
	var out []queryRun
	sys.Run(func(h *biscuit.Host) {
		data := loadSuite(t, h, d)
		for _, q := range queries {
			if reset != nil {
				reset(d)
			}
			ex := db.NewExec(h, d)
			ex.BatchSize = batch
			start := h.Now()
			rows, err := q.Run(&tpch.QCtx{Ex: ex, D: data, Pl: planner.Default()})
			ex.FlushCost()
			r := queryRun{rows: rows, st: ex.St, took: h.Now() - start}
			if err != nil {
				r.err = err.Error()
			}
			out = append(out, r)
		}
	})
	return out, d
}

// suiteSystem is a system large enough for the suite's data under plan,
// and an empty Database on it.
func suiteSystem(plan fault.Plan) (*biscuit.System, *db.Database) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	cfg.Fault = plan
	sys := biscuit.NewSystem(cfg)
	return sys, db.Open(sys)
}

// loadSuite loads TPC-H at SF 0.002 into d.
func loadSuite(tb testing.TB, h *biscuit.Host, d *db.Database) *tpch.Data {
	tb.Helper()
	data, err := tpch.Gen{SF: 0.002}.Load(h, d, biscuit.SeededRand(7))
	if err != nil {
		tb.Fatalf("load: %v", err)
	}
	return data
}

// runQuery runs q on a fresh Exec over d at the default batch size.
func runQuery(tb testing.TB, h *biscuit.Host, d *db.Database, data *tpch.Data, q tpch.Query) {
	tb.Helper()
	if _, err := q.Run(&tpch.QCtx{Ex: db.NewExec(h, d), D: data, Pl: planner.Default()}); err != nil {
		tb.Fatalf("Q%d: %v", q.ID, err)
	}
}

// TestScratchBoundedByUse: the scratch holds no more entries than were
// out at once, whatever it was asked for before. On one Database the
// hundred-query shape mix runs, then the 22 TPC-H queries twice; the
// second pass asks for no more at once than the first, so after each of
// its queries no stack holds more entries than after the first pass.
func TestScratchBoundedByUse(t *testing.T) {
	sys, d := suiteSystem(fault.Plan{})
	sys.Run(func(h *biscuit.Host) {
		db.RunShapeMix(t, h, d, 100)
		data := loadSuite(t, h, d)
		for _, q := range tpch.All() {
			runQuery(t, h, d, data, q)
		}
		first := db.ScratchEntries(d)
		for _, q := range tpch.All() {
			runQuery(t, h, d, data, q)
			got := db.ScratchEntries(d)
			for k := range got {
				if got[k] > first[k] {
					t.Fatalf("after the second pass's Q%d the scratch holds %v batches, buffers, slabs and indexes; the first pass left %v",
						q.ID, got, first)
				}
			}
		}
		t.Logf("the scratch holds %v batches, buffers, slabs and indexes", first)
	})
}

// BenchmarkSuiteWarm runs the 22 TPC-H queries at SF 0.002 on one
// Database whose scratch a first pass has warmed. One op is one pass of
// the suite, so B/op and allocs/op are what it allocates once the
// scratch holds what the queries ask of it.
func BenchmarkSuiteWarm(b *testing.B) {
	sys, d := suiteSystem(fault.Plan{})
	sys.Run(func(h *biscuit.Host) {
		data := loadSuite(b, h, d)
		pass := func() {
			for _, q := range tpch.All() {
				runQuery(b, h, d, data, q)
			}
		}
		pass()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			pass()
		}
	})
}

// TestScratchLeaksNothingAcrossQueries: the 22 TPC-H queries run back to
// back on one Database, in id order and reversed, each return the rows,
// Stats and sim time they return on fresh memory — at batch sizes 1, 7
// and 1024, and under a fault plan that kills device scans mid-query. A
// recycled batch, chunk, page or slab whose stale cells a query read
// would show as a row that differs.
func TestScratchLeaksNothingAcrossQueries(t *testing.T) {
	inOrder := tpch.All()
	reversed := slices.Clone(inOrder)
	slices.Reverse(reversed)
	check := func(what string, plan fault.Plan, batch int, queries []tpch.Query) (fellBack, failed int) {
		t.Helper()
		got, _ := runSuite(t, plan, batch, queries, nil)
		want, _ := runSuite(t, plan, batch, queries, db.DropScratch)
		for i, q := range queries {
			g, w := got[i], want[i]
			if g.err != w.err || g.st != w.st || g.took != w.took {
				t.Fatalf("%s Q%d: recycled scratch gave err %q, %+v in %v; fresh gave err %q, %+v in %v",
					what, q.ID, g.err, g.st, g.took, w.err, w.st, w.took)
			}
			if !slices.EqualFunc(g.rows, w.rows, slices.Equal) {
				t.Fatalf("%s Q%d: recycled scratch returned %d rows, fresh %d, and they differ", what, q.ID, len(g.rows), len(w.rows))
			}
			if g.st.NDPFallbacks > 0 {
				fellBack++
			}
			if g.err != "" {
				failed++
			}
		}
		return fellBack, failed
	}
	for _, batch := range []int{1, 7, 1024} {
		check(fmt.Sprintf("in order, batch=%d", batch), fault.Plan{}, batch, inOrder)
		check(fmt.Sprintf("reversed, batch=%d", batch), fault.Plan{}, batch, reversed)
	}
	for _, run := range []struct {
		what    string
		queries []tpch.Query
	}{{"in order", inOrder}, {"reversed", reversed}} {
		what := run.what
		fellBack, failed := check(what+", faults", db.LawFaults, 7, run.queries)
		t.Logf("%s under faults: %d queries fell back to Conv, %d failed", what, fellBack, failed)
		if fellBack == 0 {
			t.Fatalf("%s under faults: no device scan fell back; the fault path went untested", what)
		}
	}
}

// TestScratchInterleavedShardQueries: a Conv Q1 and an NDP Q6 shard
// query — serve's partial aggregations — in flight together on one
// Database each return the partial rows they return alone.
func TestScratchInterleavedShardQueries(t *testing.T) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	ms := biscuit.NewMultiSystem(cfg, 1)
	sys := ms.Systems[0]
	d := db.Open(sys)
	var data *tpch.Data
	sys.Run(func(h *biscuit.Host) {
		var err error
		if data, err = (tpch.Gen{SF: 0.002}).Load(h, d, biscuit.SeededRand(7)); err != nil {
			t.Fatal(err)
		}
	})
	li := data.Lineitem
	q1, q6 := tpch.Q1(li.Sch), tpch.Q6(li.Sch)
	keys, ok := planner.ExtractKeys(li.Sch, q6.Pred)
	if !ok {
		t.Fatal("Q6's predicate gives the matcher no keys")
	}
	shard := func(q tpch.AggQuery, scan func(ex *db.Exec) db.Iterator) func(h *biscuit.Host) ([]db.Row, sim.Time, sim.Time) {
		plan, err := db.NewShardedAggPlan(q.GroupBy, q.GroupNms, q.Aggs)
		if err != nil {
			t.Fatal(err)
		}
		return func(h *biscuit.Host) ([]db.Row, sim.Time, sim.Time) {
			ex := db.NewExec(h, d)
			start := h.Now()
			rows, err := db.Collect(plan.ShardOp(ex, scan(ex)))
			if err != nil {
				t.Fatal(err)
			}
			ex.FlushCost()
			return rows, start, h.Now()
		}
	}
	conv := shard(q1, func(ex *db.Exec) db.Iterator { return ex.NewConvScan(li, q1.Pred) })
	ndp := shard(q6, func(ex *db.Exec) db.Iterator { return ex.NewNDPScan(li, keys, q6.Pred) })
	var solo1, solo6 []db.Row
	sys.Run(func(h *biscuit.Host) {
		solo1, _, _ = conv(h)
		solo6, _, _ = ndp(h)
	})
	var got1, got6 []db.Row
	var end1, start6 sim.Time
	ms.Run(func(h *biscuit.MultiHost) {
		h.Wait(
			h.Go("q1", func(h *biscuit.MultiHost) { got1, _, end1 = conv(h.Unit(0)) }),
			h.Go("q6", func(h *biscuit.MultiHost) { got6, start6, _ = ndp(h.Unit(0)) }))
	})
	if start6 >= end1 {
		t.Fatalf("Q6 started at %v, after Q1 ended at %v: the queries did not interleave", start6, end1)
	}
	if !slices.EqualFunc(got1, solo1, slices.Equal) || len(got1) == 0 {
		t.Fatalf("interleaved Conv Q1 partials %v, alone %v", got1, solo1)
	}
	if !slices.EqualFunc(got6, solo6, slices.Equal) || len(got6) == 0 {
		t.Fatalf("interleaved NDP Q6 partials %v, alone %v", got6, solo6)
	}
}
