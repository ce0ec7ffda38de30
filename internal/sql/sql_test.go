package sql

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
)

// ---- parser unit tests ----

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return s
}

func TestParseBasicSelect(t *testing.T) {
	s := mustParse(t, "SELECT a, b FROM t WHERE a = 1 ORDER BY b DESC LIMIT 10")
	if len(s.Items) != 2 || len(s.From) != 1 || s.From[0] != "t" {
		t.Fatalf("%+v", s)
	}
	if s.Limit != 10 || !s.OrderBy[0].Desc {
		t.Fatalf("%+v", s)
	}
}

func TestParseFig8Query2(t *testing.T) {
	s := mustParse(t, `
		SELECT l_orderkey, l_shipdate, l_linenumber
		FROM lineitem
		WHERE (l_shipdate = '1995-1-17' OR l_shipdate = '1995-1-18')
		  AND (l_linenumber = 1 OR l_linenumber = 2)`)
	b, ok := s.Where.(BinNode)
	if !ok || b.Op != "AND" {
		t.Fatalf("where = %s", nodeString(s.Where))
	}
	if _, ok := b.L.(BinNode); !ok {
		t.Fatalf("where = %s", nodeString(s.Where))
	}
	if d, ok := b.L.(BinNode).L.(BinNode).R.(DateNode); !ok || d.S != "1995-1-17" {
		t.Fatalf("date literal not recognized: %s", nodeString(s.Where))
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	// AND binds tighter than OR.
	if nodeString(s.Where) != "((a = 1) OR ((b = 2) AND (c = 3)))" {
		t.Fatalf("got %s", nodeString(s.Where))
	}
	s = mustParse(t, "SELECT a + b * c FROM t")
	if nodeString(s.Items[0].Expr) != "(a + (b * c))" {
		t.Fatalf("got %s", nodeString(s.Items[0].Expr))
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustParse(t, "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*), AVG(l_discount) FROM lineitem GROUP BY l_returnflag")
	if len(s.GroupBy) != 1 || len(s.Items) != 4 {
		t.Fatalf("%+v", s)
	}
	if a, ok := s.Items[2].Expr.(AggNode); !ok || a.Fn != "COUNT" || a.Arg != nil {
		t.Fatalf("count(*) parse: %#v", s.Items[2].Expr)
	}
	if s.Items[1].Alias != "qty" {
		t.Fatalf("alias %q", s.Items[1].Alias)
	}
}

func TestParseNotLikeInBetween(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE x NOT LIKE '%y%' AND z IN ('A','B') AND w BETWEEN 1 AND 5 AND NOT v = 3")
	str := nodeString(s.Where)
	for _, want := range []string{"NOT LIKE", `IN ("A","B")`, "BETWEEN 1 AND 5", "NOT (v = 3)"} {
		if !strings.Contains(str, want) {
			t.Fatalf("missing %q in %s", want, str)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t garbage",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestLexComments(t *testing.T) {
	s := mustParse(t, "SELECT a -- trailing comment\nFROM t")
	if len(s.Items) != 1 || s.From[0] != "t" {
		t.Fatalf("%+v", s)
	}
}

// ---- execution tests over a TPC-H instance ----

func rig(t *testing.T) (*biscuit.System, *db.Database, *tpch.Data) {
	t.Helper()
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	sys := biscuit.NewSystem(cfg)
	d := db.Open(sys)
	var data *tpch.Data
	sys.Run(func(h *biscuit.Host) {
		var err error
		data, err = tpch.Gen{SF: 0.002}.Load(h, d, biscuit.SeededRand(7))
		if err != nil {
			t.Fatal(err)
		}
	})
	return sys, d, data
}

func TestRunSimpleFilter(t *testing.T) {
	sys, d, data := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderpriority = '1-URGENT' LIMIT 5")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 || len(res.Cols) != 2 {
			t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Cols)
		}
		_ = data
	})
}

func TestRunMatchesHandBuiltPlan(t *testing.T) {
	sys, d, data := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil,
			"SELECT l_orderkey, l_shipdate, l_linenumber FROM lineitem WHERE l_shipdate = '1995-1-17'")
		if err != nil {
			t.Fatal(err)
		}
		// Hand-built equivalent.
		ex2 := db.NewExec(h, d)
		ls := data.Lineitem.Sch
		want, err := db.Collect(ex2.NewConvScan(data.Lineitem, db.EqD(ls, "l_shipdate", "1995-01-17")))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("sql=%d hand=%d", len(res.Rows), len(want))
		}
		for i := range want {
			if !db.Equal(res.Rows[i][0], want[i][ls.Col("l_orderkey")]) {
				t.Fatalf("row %d mismatch", i)
			}
		}
	})
}

func TestRunAggregateGroupBy(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
			       AVG(l_discount) AS avg_disc, COUNT(*) AS n
			FROM lineitem
			WHERE l_shipdate <= '1998-09-02'
			GROUP BY l_returnflag, l_linestatus
			ORDER BY l_returnflag, l_linestatus`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("groups=%d: %v", len(res.Rows), res.Rows)
		}
		if res.Cols[2] != "sum_qty" || res.Cols[4] != "n" {
			t.Fatalf("cols=%v", res.Cols)
		}
		var total int64
		for _, r := range res.Rows {
			total += r[4].I
		}
		if total == 0 {
			t.Fatal("no rows aggregated")
		}
	})
}

func TestRunJoin(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT n_name, COUNT(*) AS suppliers
			FROM supplier, nation
			WHERE s_nationkey = n_nationkey
			GROUP BY n_name
			ORDER BY suppliers DESC, n_name
			LIMIT 3`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 || len(res.Rows) > 3 {
			t.Fatalf("rows=%v", res.Rows)
		}
		if res.Rows[0][1].I < res.Rows[len(res.Rows)-1][1].I {
			t.Fatal("not sorted desc")
		}
	})
}

func TestRunThreeWayJoin(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT r_name, SUM(s_acctbal) AS bal
			FROM supplier, nation, region
			WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey
			GROUP BY r_name
			ORDER BY r_name`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 || len(res.Rows) > 5 {
			t.Fatalf("regions=%d", len(res.Rows))
		}
	})
}

func TestRunWithPlannerOffloads(t *testing.T) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	sys := biscuit.NewSystem(cfg)
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		if _, err := (tpch.Gen{SF: 0.01}).Load(h, d, biscuit.SeededRand(7)); err != nil {
			t.Fatal(err)
		}
	})
	sys.Run(func(h *biscuit.Host) {
		q := "SELECT l_orderkey FROM lineitem WHERE l_shipdate = '1995-1-17'"
		exC := db.NewExec(h, d)
		conv, err := Run(exC, d, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		exB := db.NewExec(h, d)
		bisc, err := Run(exB, d, planner.Default(), q)
		if err != nil {
			t.Fatal(err)
		}
		if bisc.Decision == nil || !bisc.Decision.Offloaded {
			t.Fatalf("decision=%+v, want offload", bisc.Decision)
		}
		if len(conv.Rows) != len(bisc.Rows) {
			t.Fatalf("conv=%d bisc=%d rows", len(conv.Rows), len(bisc.Rows))
		}
		if exB.St.PagesOverLink >= exC.St.PagesOverLink {
			t.Fatalf("offloaded run moved %d pages, conv %d", exB.St.PagesOverLink, exC.St.PagesOverLink)
		}
	})
}

func TestRunErrors(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		bad := []string{
			"SELECT x FROM nosuch",
			"SELECT nosuchcol FROM orders",
			"SELECT o_orderkey FROM orders, lineitem", // no join predicate
			"SELECT o_orderkey FROM orders WHERE o_orderdate = 5",
			"SELECT SUM(o_totalprice) FROM orders GROUP BY", // dangling GROUP BY
		}
		for _, q := range bad {
			if _, err := Run(ex, d, nil, q); err == nil {
				t.Errorf("expected error for %q", q)
			}
		}
	})
}

func TestRunExpressionSelect(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil,
			"SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem WHERE l_quantity < 10")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].T != db.TDecimal || res.Rows[0][0].I <= 0 {
			t.Fatalf("revenue=%v", res.Rows)
		}
	})
}

// TestRunIntegerArithmeticIsExact: integer expressions keep every
// digit int64 holds. 2^53+1 and 3037000499² are the smallest sum and
// square a float64 would round.
func TestRunIntegerArithmeticIsExact(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT 9007199254740993 + 0, 3037000499 * 3037000499, 7 / -2, r_regionkey * 9007199254740993
			FROM region WHERE r_regionkey = 1`)
		if err != nil {
			t.Fatal(err)
		}
		want := db.Row{db.Int(9007199254740993), db.Int(9223372030926249001), db.Int(-3), db.Int(9007199254740993)}
		if len(res.Rows) != 1 || !slices.Equal(res.Rows[0], want) {
			t.Fatalf("rows %v, want [%v]", res.Rows, want)
		}
	})
}

func TestParseUnaryMinusAndQualifiedCols(t *testing.T) {
	s := mustParse(t, "SELECT -a, orders.o_orderkey FROM orders WHERE orders.o_shippriority = -1")
	if nodeString(s.Items[0].Expr) != "(0 - a)" {
		t.Fatalf("unary minus: %s", nodeString(s.Items[0].Expr))
	}
	if c, ok := s.Items[1].Expr.(ColNode); !ok || c.Table != "orders" {
		t.Fatalf("qualified column: %#v", s.Items[1].Expr)
	}
}

func TestRunOrderByAliasAndAggInOrderBy(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT o_orderpriority AS p, COUNT(*) AS n
			FROM orders GROUP BY o_orderpriority
			ORDER BY COUNT(*) DESC, p`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("priorities=%d", len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i][1].I > res.Rows[i-1][1].I {
				t.Fatal("not sorted by count desc")
			}
		}
	})
}

// In a plain SELECT an ORDER BY alias substitutes only when no input
// column has its name: here o_custkey is both an alias (of o_orderkey)
// and a column, and the column wins; t is only an alias.
func TestRunPlainOrderByAliasYieldsToInputColumn(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT o_orderkey AS o_custkey, o_custkey AS k, o_totalprice AS t
			FROM orders ORDER BY o_custkey, t DESC`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) < 2 {
			t.Fatalf("%d rows", len(res.Rows))
		}
		unordered := false // some row must break o_orderkey order, or the alias could have won
		for i := 1; i < len(res.Rows); i++ {
			prev, cur := res.Rows[i-1], res.Rows[i]
			switch {
			case cur[1].I < prev[1].I:
				t.Fatalf("row %d: k %d after %d, want the input o_custkey ascending", i, cur[1].I, prev[1].I)
			case cur[1].I == prev[1].I && cur[2].I > prev[2].I:
				t.Fatalf("row %d: t %v after %v within one k, want the alias t descending", i, cur[2], prev[2])
			case cur[0].I < prev[0].I:
				unordered = true
			}
		}
		if !unordered {
			t.Fatal("rows also ascend by o_orderkey: the test cannot tell the column from the alias")
		}
	})
}

func TestRunNotInAndDecimalCoercion(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT COUNT(*) FROM orders
			WHERE o_orderpriority NOT IN ('1-URGENT', '2-HIGH') AND o_totalprice > 1000`)
		if err != nil {
			t.Fatal(err)
		}
		n := res.Rows[0][0].I
		res2, err := Run(ex, d, nil, `
			SELECT COUNT(*) FROM orders
			WHERE o_orderpriority IN ('1-URGENT', '2-HIGH') AND o_totalprice > 1000`)
		if err != nil {
			t.Fatal(err)
		}
		all, err := Run(ex, d, nil, "SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000")
		if err != nil {
			t.Fatal(err)
		}
		if n+res2.Rows[0][0].I != all.Rows[0][0].I {
			t.Fatalf("IN + NOT IN must partition: %d + %d != %d", n, res2.Rows[0][0].I, all.Rows[0][0].I)
		}
	})
}

func TestRunQualifiedJoinColumns(t *testing.T) {
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := Run(ex, d, nil, `
			SELECT COUNT(*) FROM supplier, nation
			WHERE supplier.s_nationkey = nation.n_nationkey`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I == 0 {
			t.Fatal("qualified equi-join matched nothing")
		}
	})
}

// answerDigest folds a result into an FNV-1a digest: the column names,
// then each cell's type and printed value, each row closed by an empty
// record.
func answerDigest(res *Result) string {
	var d stats.Digest
	for _, c := range res.Cols {
		d.AddRecord(c)
	}
	for _, r := range res.Rows {
		for _, v := range r {
			d.AddInt64(int64(v.T))
			d.AddRecord(v.String())
		}
		d.AddRecord("")
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// TestRunPinnedAnswers holds the statements the tests above run to their
// recorded answers on rig's data, with and without the offload planner,
// at one row per batch, a batch size that divides nothing, and the
// default slab. The tests above check shapes and internal consistency;
// these digests see a wrong cell anywhere in the answer.
func TestRunPinnedAnswers(t *testing.T) {
	pinned := []struct{ query, digest string }{
		{"SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderpriority = '1-URGENT' LIMIT 5", "2cdcc93030b378ae"},
		{"SELECT l_orderkey, l_shipdate, l_linenumber FROM lineitem WHERE l_shipdate = '1995-1-17'", "cc53bda77f1d5f58"},
		{"SELECT l_orderkey FROM lineitem WHERE l_shipdate = '1995-1-17'", "9d7a696610497915"},
		{`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		         AVG(l_discount) AS avg_disc, COUNT(*) AS n
		  FROM lineitem WHERE l_shipdate <= '1998-09-02'
		  GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, "798e3edfba930e8a"},
		{`SELECT n_name, COUNT(*) AS suppliers FROM supplier, nation
		  WHERE s_nationkey = n_nationkey GROUP BY n_name
		  ORDER BY suppliers DESC, n_name LIMIT 3`, "17ae374290e4ee26"},
		{`SELECT r_name, SUM(s_acctbal) AS bal FROM supplier, nation, region
		  WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		  GROUP BY r_name ORDER BY r_name`, "8766ce1f7ef3a173"},
		{"SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem WHERE l_quantity < 10", "74ca0dd0f5b5aa0a"},
		{`SELECT o_orderpriority AS p, COUNT(*) AS n FROM orders
		  GROUP BY o_orderpriority ORDER BY COUNT(*) DESC, p`, "cfd54d87719e1d37"},
		{`SELECT COUNT(*) FROM orders
		  WHERE o_orderpriority NOT IN ('1-URGENT', '2-HIGH') AND o_totalprice > 1000`, "c2ace32c36307b40"},
		{`SELECT COUNT(*) FROM orders
		  WHERE o_orderpriority IN ('1-URGENT', '2-HIGH') AND o_totalprice > 1000`, "eb40d6f327251c7e"},
		{"SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000", "f5b3f6137787f5d8"},
		{"SELECT COUNT(*) FROM supplier, nation WHERE supplier.s_nationkey = nation.n_nationkey", "2ee2d06ab456e67f"},
	}
	sys, d, _ := rig(t)
	sys.Run(func(h *biscuit.Host) {
		for _, p := range pinned {
			for _, pl := range []*planner.Planner{nil, planner.Default()} {
				for _, batch := range []int{1, 7, 1024} {
					ex := db.NewExec(h, d)
					ex.BatchSize = batch
					res, err := Run(ex, d, pl, p.query)
					if err != nil {
						t.Fatalf("%s: %v", p.query, err)
					}
					if got := answerDigest(res); got != p.digest {
						t.Errorf("%s (planner=%v, batch=%d): answer digest %s, pinned %s (%d rows)",
							p.query, pl != nil, batch, got, p.digest, len(res.Rows))
					}
				}
			}
		}
	})
}
