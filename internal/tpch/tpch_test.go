package tpch

import (
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
)

// testData loads a tiny TPC-H instance once per test system.
func testData(t *testing.T) (*biscuit.System, *Data) {
	t.Helper()
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	sys := biscuit.NewSystem(cfg)
	d := db.Open(sys)
	var data *Data
	sys.Run(func(h *biscuit.Host) {
		var err error
		data, err = Gen{SF: 0.002}.Load(h, d, biscuit.SeededRand(7))
		if err != nil {
			t.Fatal(err)
		}
	})
	return sys, data
}

func TestGeneratorCardinalities(t *testing.T) {
	_, data := testData(t)
	if data.Region.Rows != 5 || data.Nation.Rows != 25 {
		t.Fatalf("region=%d nation=%d", data.Region.Rows, data.Nation.Rows)
	}
	if data.Orders.Rows != 3000 {
		t.Fatalf("orders=%d, want 3000 at SF 0.002", data.Orders.Rows)
	}
	// lineitem has 1-7 lines per order, expectation 4.
	ratio := float64(data.Lineitem.Rows) / float64(data.Orders.Rows)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("lineitem/orders ratio %.2f", ratio)
	}
	if data.PartSupp.Rows != 4*data.Part.Rows {
		t.Fatalf("partsupp=%d part=%d", data.PartSupp.Rows, data.Part.Rows)
	}
	if data.Lineitem.Pages < 50 {
		t.Fatalf("lineitem only %d pages; too small to exercise scans", data.Lineitem.Pages)
	}
}

func TestOrdersAreTimeOrdered(t *testing.T) {
	sys, data := testData(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, data.DB)
		rows, err := db.Collect(ex.NewConvScan(data.Orders, nil))
		if err != nil {
			t.Fatal(err)
		}
		col := data.Orders.Sch.Col("o_orderdate")
		for i := 1; i < len(rows); i++ {
			if rows[i][col].I < rows[i-1][col].I {
				t.Fatal("orders not in date order")
			}
		}
	})
}

func rowsEqual(a, b []db.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !db.Equal(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestAllQueriesConvVsBiscuit is the central correctness gate: for every
// one of the 22 queries, the Conv plan and the planner-driven (possibly
// offloaded, join-reordered) plan must return identical rows.
func TestAllQueriesConvVsBiscuit(t *testing.T) {
	sys, data := testData(t)
	sys.Run(func(h *biscuit.Host) {
		for _, query := range All() {
			conv := &QCtx{Ex: db.NewExec(h, data.DB), D: data}
			convRows, err := query.Run(conv)
			if err != nil {
				t.Fatalf("Q%d conv: %v", query.ID, err)
			}
			bisc := &QCtx{Ex: db.NewExec(h, data.DB), D: data, Pl: planner.Default()}
			biscRows, err := query.Run(bisc)
			if err != nil {
				t.Fatalf("Q%d biscuit: %v", query.ID, err)
			}
			if !rowsEqual(convRows, biscRows) {
				t.Errorf("Q%d: conv %d rows != biscuit %d rows (offloaded=%v)",
					query.ID, len(convRows), len(biscRows), bisc.Offloaded)
				if len(convRows) > 0 && len(biscRows) > 0 {
					t.Logf("Q%d first conv row: %v", query.ID, convRows[0])
					t.Logf("Q%d first bisc row: %v", query.ID, biscRows[0])
				}
			}
			t.Logf("Q%-2d rows=%-6d offloaded=%-5v decisions=%v", query.ID, len(convRows), bisc.Offloaded, summarize(bisc))
		}
	})
}

// TestEachQueryMakesOneDecision holds the 22 plans to the promise of
// q01_11.go — each calls q.Scan exactly once — that Fig. 10's one
// planner decision per query rests on.
func TestEachQueryMakesOneDecision(t *testing.T) {
	sys, data := testData(t)
	sys.Run(func(h *biscuit.Host) {
		for _, query := range All() {
			q := &QCtx{Ex: db.NewExec(h, data.DB), D: data, Pl: planner.Default()}
			if _, err := query.Run(q); err != nil {
				t.Fatalf("Q%d: %v", query.ID, err)
			}
			if len(q.Decisions) != 1 {
				t.Errorf("Q%d made %d planner decisions, want exactly one: %v", query.ID, len(q.Decisions), summarize(q))
			}
		}
	})
}

func summarize(q *QCtx) []string {
	var out []string
	for _, d := range q.Decisions {
		out = append(out, d.Reason)
	}
	return out
}

func TestQ1ReturnsFourGroups(t *testing.T) {
	sys, data := testData(t)
	sys.Run(func(h *biscuit.Host) {
		q := &QCtx{Ex: db.NewExec(h, data.DB), D: data}
		rows, err := q1(q)
		if err != nil {
			t.Fatal(err)
		}
		// returnflag x linestatus: A/F, N/F, N/O, R/F.
		if len(rows) != 4 {
			t.Fatalf("groups=%d, want 4: %v", len(rows), rows)
		}
		// Counts must sum to the filtered row count (~97% of lineitem).
		var n int64
		for _, r := range rows {
			n += r[len(r)-1].I
		}
		if n < data.Lineitem.Rows*9/10 || n > data.Lineitem.Rows {
			t.Fatalf("aggregated %d of %d rows", n, data.Lineitem.Rows)
		}
	})
}

func TestQ6RevenueMatchesDirectComputation(t *testing.T) {
	sys, data := testData(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, data.DB)
		// Direct: scan all rows and compute by hand.
		rows, err := db.Collect(ex.NewConvScan(data.Lineitem, nil))
		if err != nil {
			t.Fatal(err)
		}
		ls := data.Lineitem.Sch
		shipC, discC, qtyC, priceC := ls.Col("l_shipdate"), ls.Col("l_discount"), ls.Col("l_quantity"), ls.Col("l_extendedprice")
		lo, hi := db.MustDate("1994-01-01").I, db.MustDate("1995-01-01").I
		var want float64
		for _, r := range rows {
			if r[shipC].I >= lo && r[shipC].I < hi && r[discC].I >= 5 && r[discC].I <= 7 && r[qtyC].I < 24 {
				want += r[priceC].Float() * r[discC].Float()
			}
		}
		q := &QCtx{Ex: db.NewExec(h, data.DB), D: data, Pl: planner.Default()}
		got, err := q6(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("rows=%v", got)
		}
		gf := got[0][0].Float()
		if gf < want*0.999-1 || gf > want*1.001+1 {
			t.Fatalf("q6=%v, direct=%v", gf, want)
		}
	})
}

func TestOffloadCategorization(t *testing.T) {
	// Needs a non-toy SF so fact tables clear the planner's minimum
	// table size, as in the paper's setup.
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	sys := biscuit.NewSystem(cfg)
	dbase := db.Open(sys)
	var data *Data
	sys.Run(func(h *biscuit.Host) {
		var err error
		data, err = Gen{SF: 0.01}.Load(h, dbase, biscuit.SeededRand(7))
		if err != nil {
			t.Fatal(err)
		}
	})
	sys.Run(func(h *biscuit.Host) {
		offloaded := map[int]bool{}
		for _, query := range All() {
			q := &QCtx{Ex: db.NewExec(h, data.DB), D: data, Pl: planner.Default()}
			if _, err := query.Run(q); err != nil {
				t.Fatalf("Q%d: %v", query.ID, err)
			}
			offloaded[query.ID] = q.Offloaded
		}
		// The paper's structural facts: Q1, Q13, Q18 never offload
		// (one-sided range / NOT LIKE / no filter), Q14 (month filter on
		// the fact table) does.
		for _, id := range []int{1, 13, 18} {
			if offloaded[id] {
				t.Errorf("Q%d must not offload", id)
			}
		}
		if !offloaded[14] {
			t.Error("Q14 must offload (its month filter is the paper's flagship case)")
		}
		n := 0
		for _, v := range offloaded {
			if v {
				n++
			}
		}
		t.Logf("offloaded queries: %d of 22: %v", n, offloaded)
		if n < 5 || n > 10 {
			t.Errorf("offloaded count %d outside the paper-like 5-10 band", n)
		}
	})
}
