package db

import (
	"runtime"
	"testing"

	"biscuit"
)

// convSum is a Conv aggregate query over the fixture: sum(price) and
// max(ship) over the rows with id >= lo. It reads no string cell, so its
// batches' string arenas stay empty.
func convSum(ex *Exec, tab *Table, lo int64) Iterator {
	return ScalarAgg(ex, ex.NewConvScan(tab, Cmp{GE, C(tab.Sch, "id"), Lit(Int(lo))}),
		Agg{F: Sum, Arg: C(tab.Sch, "price")}, Agg{F: Max, Arg: C(tab.Sch, "ship")})
}

// TestRepeatedQueryReusesScratch: the second of two identical Conv
// aggregate queries on one Database, each on a fresh Exec, finds the
// first one's read-ahead chunk and batches in the Database's scratch. It
// allocates less than a quarter of the 256 KiB chunk it would otherwise
// allocate again.
func TestRepeatedQueryReusesScratch(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 20000, 50)
		if tab.Bytes() < convReadChunk {
			t.Fatalf("fixture is %d bytes, want at least one %d-byte read-ahead chunk", tab.Bytes(), convReadChunk)
		}
		query := func() []Row {
			rows, err := Collect(convSum(NewExec(h, d), tab, 100))
			if err != nil || len(rows) == 0 {
				t.Fatalf("%d rows, err %v", len(rows), err)
			}
			return rows
		}
		first := query()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		second := query()
		runtime.ReadMemStats(&after)
		const bound = 64 << 10
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("second query: %d bytes allocated (bound %d)", alloc, bound)
		if alloc >= bound {
			t.Fatalf("the second identical query allocated %d bytes, want < %d: its scratch was not reused", alloc, bound)
		}
		if len(first) != len(second) {
			t.Fatalf("the second query returned %d rows, the first %d", len(second), len(first))
		}
	})
}

// TestScratchDoubleCloseGivesBackOnce: a scan and a projection closed
// twice give their chunk and batch back once, so two scans in flight
// afterwards hold distinct chunks and distinct batches.
func TestScratchDoubleCloseGivesBackOnce(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 3000, 50)
		ex := NewExec(h, d)
		d.scratch = scratch{}
		project := func() *ProjectOp {
			p := &ProjectOp{Ex: ex, In: ex.NewConvScan(tab, nil), Exprs: []Expr{C(tab.Sch, "id")}}
			if err := p.Open(); err != nil {
				t.Fatal(err)
			}
			if n, err := p.NextBatch(NewRowBatch(0)); err != nil || n == 0 {
				t.Fatalf("%d rows, err %v", n, err)
			}
			return p
		}
		p := project()
		for range 2 {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if nb, nc := len(d.scratch.batches), len(d.scratch.bufs); nb != 1 || nc != 1 {
			t.Fatalf("after a double Close the scratch holds %d batches and %d chunks, want one of each", nb, nc)
		}
		a, b := project(), project()
		if a.in == b.in {
			t.Fatal("two projections in flight share one input batch")
		}
		ca, cb := a.In.(*ConvScan).chunk, b.In.(*ConvScan).chunk
		if &ca[:1][0] == &cb[:1][0] {
			t.Fatal("two scans in flight share one read-ahead chunk")
		}
		a.Close()
		b.Close()
	})
}

// runShapeMix loads the fixture into d and runs n queries on it, in turn
// of every shape that takes scratch — Conv and NDP scans, hash and BNL
// joins, a projection — at batch sizes 1, 7 and 1024 in turn.
func runShapeMix(t testing.TB, h *biscuit.Host, d *Database, n int) {
	t.Helper()
	tab := loadFixture(t, h, d, 20000, 50)
	sch := tab.Sch
	both := sch.Concat(sch)
	shapes := []func(ex *Exec) Iterator{
		func(ex *Exec) Iterator { return convSum(ex, tab, 0) },
		func(ex *Exec) Iterator {
			return ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(sch, "note", "TARGETKEY"))
		},
		func(ex *Exec) Iterator {
			return &HashJoin{Ex: ex, Left: ex.NewConvScan(tab, Cmp{LT, C(sch, "id"), Lit(Int(3000))}),
				Right:   ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(sch, "note", "TARGETKEY")),
				LeftKey: C(sch, "id"), RightKey: C(sch, "id")}
		},
		func(ex *Exec) Iterator {
			return &BNLJoin{Ex: ex, Outer: ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(sch, "note", "TARGETKEY")),
				Inner: func() Iterator { return ex.NewConvScan(tab, Cmp{LT, C(sch, "id"), Lit(Int(500))}) },
				On:    Cmp{EQ, C(both, "ship"), C(both, "ship_r")}}
		},
		func(ex *Exec) Iterator {
			return &ProjectOp{Ex: ex, In: ex.NewConvScan(tab, nil), Exprs: []Expr{C(sch, "note"), C(sch, "price")}}
		},
	}
	for i := range n {
		ex := NewExec(h, d)
		ex.BatchSize = joinBatchSizes[i%len(joinBatchSizes)]
		if _, err := Collect(shapes[i%len(shapes)](ex)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}
