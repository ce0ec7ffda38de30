package tpch

import "biscuit/internal/db"

// The 22 TPC-H queries as hand-built plans. Parameters are the standard
// validation values. Each query calls q.Scan exactly once, on its
// offload-candidate table; everything else uses Conv scans and joins.
// Offloaded queries place the NDP scan first in block-nested-loop joins
// (via QCtx.bnlCandidate), implementing the paper's join-order heuristic.

// Q1: pricing summary report, over the lineitem schema ls: eight
// aggregates per (l_returnflag, l_linestatus). Filter l_shipdate <=
// 1998-09-02 keeps ~97% of rows and has no equality literal, so the
// planner never attempts NDP (matches the paper's Q1 categorization).
func Q1(ls *db.Schema) AggQuery {
	charge := db.Arith{Op: db.Mul, L: revenue(ls),
		R: db.Arith{Op: db.Add, L: db.Lit(db.Dec(100)), R: db.C(ls, "l_tax")}}
	return AggQuery{
		Pred:     db.Cmp{Op: db.LE, L: db.C(ls, "l_shipdate"), R: db.Lit(db.MustDate("1998-09-02"))},
		GroupBy:  []db.Expr{db.C(ls, "l_returnflag"), db.C(ls, "l_linestatus")},
		GroupNms: []string{"l_returnflag", "l_linestatus"},
		Aggs: []db.Agg{
			{F: db.Sum, Arg: db.C(ls, "l_quantity"), Name: "sum_qty"},
			{F: db.Sum, Arg: db.C(ls, "l_extendedprice"), Name: "sum_base_price"},
			{F: db.Sum, Arg: revenue(ls), Name: "sum_disc_price"},
			{F: db.Sum, Arg: charge, Name: "sum_charge"},
			{F: db.Avg, Arg: db.C(ls, "l_quantity"), Name: "avg_qty"},
			{F: db.Avg, Arg: db.C(ls, "l_extendedprice"), Name: "avg_price"},
			{F: db.Avg, Arg: db.C(ls, "l_discount"), Name: "avg_disc"},
			{F: db.CountAgg, Name: "count_order"},
		},
	}
}

func q1(q *QCtx) ([]db.Row, error) { return q.lineitemAgg(Q1(q.D.Lineitem.Sch)) }

// Q2: minimum-cost supplier. Candidate: part (p_size = 15 AND p_type
// LIKE '%BRASS'); a fifth of parts carry BRASS types, so sampling
// normally refuses the offload.
func q2(q *QCtx) ([]db.Row, error) {
	ps := q.D.Part.Sch
	partPred := db.AndOf(
		db.Cmp{Op: db.EQ, L: db.C(ps, "p_size"), R: db.Lit(db.Int(15))},
		db.Like{X: db.C(ps, "p_type"), Pattern: "%BRASS"},
	)
	parts := q.Scan(q.D.Part, partPred)

	// European partsupp offers with supplier/nation attached.
	nr := q.hash(q.Conv(q.D.Nation, nil), q.Conv(q.D.Region, db.EqS(q.D.Region.Sch, "r_name", "EUROPE")), "n_regionkey", "r_regionkey")
	sn := q.hash(q.Conv(q.D.Supplier, nil), nr, "s_nationkey", "n_nationkey")
	eps := q.hash(q.Conv(q.D.PartSupp, nil), sn, "ps_suppkey", "s_suppkey")
	epsRows, err := db.Collect(eps)
	if err != nil {
		return nil, err
	}
	epsSch := eps.Schema()
	// Minimum supply cost per part among European offers.
	minAgg := &db.HashAggOp{Ex: q.Ex, In: db.NewMemScan(epsSch, epsRows),
		GroupBy: []db.Expr{db.C(epsSch, "ps_partkey")}, GroupNms: []string{"min_pk"},
		Aggs: []db.Agg{{F: db.Min, Arg: db.C(epsSch, "ps_supplycost"), Name: "min_cost"}}}
	minRows, err := db.Collect(minAgg)
	if err != nil {
		return nil, err
	}

	j1 := q.hash(db.NewMemScan(epsSch, epsRows), parts, "ps_partkey", "p_partkey")
	j2 := q.hash(j1, db.NewMemScan(minAgg.Schema(), minRows), "ps_partkey", "min_pk")
	j2s := j2.Schema()
	flt := &db.FilterOp{Ex: q.Ex, In: j2, Pred: db.Cmp{Op: db.EQ, L: db.C(j2s, "ps_supplycost"), R: db.C(j2s, "min_cost")}}
	srt := &db.SortOp{Ex: q.Ex, In: flt, Keys: []db.SortKey{
		{E: db.C(j2s, "s_acctbal"), Desc: true},
		{E: db.C(j2s, "n_name")}, {E: db.C(j2s, "s_name")}, {E: db.C(j2s, "p_partkey")},
	}}
	lim := &db.LimitOp{In: srt, N: 100}
	proj := &db.ProjectOp{Ex: q.Ex, In: lim,
		Exprs: []db.Expr{db.C(j2s, "s_acctbal"), db.C(j2s, "s_name"), db.C(j2s, "n_name"),
			db.C(j2s, "p_partkey"), db.C(j2s, "p_mfgr")},
		Names: []string{"s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr"}}
	return db.Collect(proj)
}

// Q3: shipping priority. Candidate: customer (c_mktsegment =
// 'BUILDING'); a fifth of customers match, so sampling refuses.
func q3(q *QCtx) ([]db.Row, error) {
	cs, os, ls := q.D.Customer.Sch, q.D.Orders.Sch, q.D.Lineitem.Sch
	cust := q.Scan(q.D.Customer, db.EqS(cs, "c_mktsegment", "BUILDING"))
	ord := q.Conv(q.D.Orders, db.Cmp{Op: db.LT, L: db.C(os, "o_orderdate"), R: db.Lit(db.MustDate("1995-03-15"))})
	li := q.Conv(q.D.Lineitem, db.Cmp{Op: db.GT, L: db.C(ls, "l_shipdate"), R: db.Lit(db.MustDate("1995-03-15"))})
	j1 := q.hash(ord, cust, "o_custkey", "c_custkey")
	j2 := q.hash(li, j1, "l_orderkey", "o_orderkey")
	j2s := j2.Schema()
	agg := &db.HashAggOp{Ex: q.Ex, In: j2,
		GroupBy:  []db.Expr{db.C(j2s, "l_orderkey"), db.C(j2s, "o_orderdate"), db.C(j2s, "o_shippriority")},
		GroupNms: []string{"l_orderkey", "o_orderdate", "o_shippriority"},
		Aggs:     []db.Agg{{F: db.Sum, Arg: revenue(j2s), Name: "revenue"}}}
	srt := &db.SortOp{Ex: q.Ex, In: agg, Keys: []db.SortKey{
		{E: db.Col{Idx: 3, Name: "revenue"}, Desc: true}, {E: db.Col{Idx: 1, Name: "o_orderdate"}}}}
	return db.Collect(&db.LimitOp{In: srt, N: 10})
}

// Q4: order priority checking. Candidate: orders over one quarter — the
// month-prefix keys are page-selective on the time-ordered fact table,
// so this offloads.
func q4(q *QCtx) ([]db.Row, error) {
	os, ls := q.D.Orders.Sch, q.D.Lineitem.Sch
	oPred := db.RangeD(os, "o_orderdate", "1993-07-01", "1993-10-01")
	o := q.Scan(q.D.Orders, oPred)
	late := q.Conv(q.D.Lineitem, db.Cmp{Op: db.LT, L: db.C(ls, "l_commitdate"), R: db.C(ls, "l_receiptdate")})
	semi := &db.HashJoin{Ex: q.Ex, Left: o, Right: late,
		LeftKey: db.C(os, "o_orderkey"), RightKey: db.C(ls, "l_orderkey"), Semi: true}
	agg := &db.HashAggOp{Ex: q.Ex, In: semi,
		GroupBy: []db.Expr{db.C(os, "o_orderpriority")}, GroupNms: []string{"o_orderpriority"},
		Aggs: []db.Agg{{F: db.CountAgg, Name: "order_count"}}}
	return db.Collect(agg)
}

// Q5: local supplier volume. Candidate: orders over one year.
func q5(q *QCtx) ([]db.Row, error) {
	os := q.D.Orders.Sch
	oPred := db.RangeD(os, "o_orderdate", "1994-01-01", "1995-01-01")
	o := q.Scan(q.D.Orders, oPred)
	jc := q.bnlCandidate(o, q.D.Orders, oPred, q.D.Customer, nil, func(s *db.Schema) db.Expr {
		return db.Cmp{Op: db.EQ, L: db.C(s, "o_custkey"), R: db.C(s, "c_custkey")}
	})
	jl := q.hash(q.Conv(q.D.Lineitem, nil), jc, "l_orderkey", "o_orderkey")
	jsSch := jl.Schema().Concat(q.D.Supplier.Sch)
	js := &db.HashJoin{Ex: q.Ex, Left: jl, Right: q.Conv(q.D.Supplier, nil),
		LeftKey: db.C(jl.Schema(), "l_suppkey"), RightKey: db.C(q.D.Supplier.Sch, "s_suppkey"),
		Residual: db.Cmp{Op: db.EQ, L: db.C(jsSch, "s_nationkey"), R: db.C(jsSch, "c_nationkey")}}
	jn := q.hash(js, q.Conv(q.D.Nation, nil), "s_nationkey", "n_nationkey")
	asia := &db.HashJoin{Ex: q.Ex, Left: jn, Right: q.Conv(q.D.Region, db.EqS(q.D.Region.Sch, "r_name", "ASIA")),
		LeftKey: db.C(jn.Schema(), "n_regionkey"), RightKey: db.C(q.D.Region.Sch, "r_regionkey"), Semi: true}
	as := asia.Schema()
	agg := &db.HashAggOp{Ex: q.Ex, In: asia,
		GroupBy: []db.Expr{db.C(as, "n_name")}, GroupNms: []string{"n_name"},
		Aggs: []db.Agg{{F: db.Sum, Arg: revenue(as), Name: "revenue"}}}
	return db.Collect(&db.SortOp{Ex: q.Ex, In: agg, Keys: []db.SortKey{{E: db.Col{Idx: 1, Name: "revenue"}, Desc: true}}})
}

// Q6: forecasting revenue change, over the lineitem schema ls: one
// revenue sum. Candidate: lineitem over one shipdate year plus
// discount/quantity bands — the classic offloadable filter.
func Q6(ls *db.Schema) AggQuery {
	rev := db.Arith{Op: db.Mul, L: db.C(ls, "l_extendedprice"), R: db.C(ls, "l_discount")}
	return AggQuery{
		Pred: db.AndOf(
			db.RangeD(ls, "l_shipdate", "1994-01-01", "1995-01-01"),
			db.Between{X: db.C(ls, "l_discount"), Lo: db.Dec(5), Hi: db.Dec(7)},
			db.Cmp{Op: db.LT, L: db.C(ls, "l_quantity"), R: db.Lit(db.Int(24))},
		),
		Aggs: []db.Agg{{F: db.Sum, Arg: rev, Name: "revenue"}},
	}
}

func q6(q *QCtx) ([]db.Row, error) { return q.lineitemAgg(Q6(q.D.Lineitem.Sch)) }

// Q7: volume shipping. Candidate: lineitem over a two-year shipdate
// window — two year keys cover too many pages, so sampling refuses.
func q7(q *QCtx) ([]db.Row, error) {
	ls := q.D.Lineitem.Sch
	li := q.Scan(q.D.Lineitem, db.RangeD(ls, "l_shipdate", "1995-01-01", "1997-01-01"))
	js := q.hash(li, q.Conv(q.D.Supplier, nil), "l_suppkey", "s_suppkey")
	jo := q.hash(js, q.Conv(q.D.Orders, nil), "l_orderkey", "o_orderkey")
	jc := q.hash(jo, q.Conv(q.D.Customer, nil), "o_custkey", "c_custkey")
	jn1 := q.hash(jc, q.Conv(q.D.Nation, nil), "s_nationkey", "n_nationkey")
	jn2 := q.hash(jn1, q.Conv(q.D.Nation, nil), "c_nationkey", "n_nationkey")
	s := jn2.Schema() // first n_name = supplier nation, n_name_r = customer nation
	pair := db.OrOf(
		db.AndOf(db.EqS(s, "n_name", "FRANCE"), db.EqS(s, "n_name_r", "GERMANY")),
		db.AndOf(db.EqS(s, "n_name", "GERMANY"), db.EqS(s, "n_name_r", "FRANCE")),
	)
	flt := &db.FilterOp{Ex: q.Ex, In: jn2, Pred: pair}
	agg := &db.HashAggOp{Ex: q.Ex, In: flt,
		GroupBy:  []db.Expr{db.C(s, "n_name"), db.C(s, "n_name_r"), db.YearOf{X: db.C(s, "l_shipdate")}},
		GroupNms: []string{"supp_nation", "cust_nation", "l_year"},
		Aggs:     []db.Agg{{F: db.Sum, Arg: revenue(s), Name: "revenue"}}}
	return db.Collect(agg)
}

// Q8: national market share. Candidate: part with an exact type match
// (1/150 of rows) — offloads.
func q8(q *QCtx) ([]db.Row, error) {
	ps := q.D.Part.Sch
	pPred := db.EqS(ps, "p_type", "ECONOMY ANODIZED STEEL")
	p := q.Scan(q.D.Part, pPred)
	jl := q.bnlCandidate(p, q.D.Part, pPred, q.D.Lineitem, nil, func(s *db.Schema) db.Expr {
		return db.Cmp{Op: db.EQ, L: db.C(s, "p_partkey"), R: db.C(s, "l_partkey")}
	})
	jo := q.hash(jl, q.Conv(q.D.Orders, db.RangeD(q.D.Orders.Sch, "o_orderdate", "1995-01-01", "1997-01-01")), "l_orderkey", "o_orderkey")
	jc := q.hash(jo, q.Conv(q.D.Customer, nil), "o_custkey", "c_custkey")
	jn := q.hash(jc, q.Conv(q.D.Nation, nil), "c_nationkey", "n_nationkey")
	amr := &db.HashJoin{Ex: q.Ex, Left: jn, Right: q.Conv(q.D.Region, db.EqS(q.D.Region.Sch, "r_name", "AMERICA")),
		LeftKey: db.C(jn.Schema(), "n_regionkey"), RightKey: db.C(q.D.Region.Sch, "r_regionkey"), Semi: true}
	jsup := q.hash(amr, q.Conv(q.D.Supplier, nil), "l_suppkey", "s_suppkey")
	jn2 := q.hash(jsup, q.Conv(q.D.Nation, nil), "s_nationkey", "n_nationkey")
	s := jn2.Schema() // n_name_r = supplier nation
	brazil := db.IfE{Cond: db.EqS(s, "n_name_r", "BRAZIL"), Then: revenue(s), Else: db.Lit(db.Dec(0))}
	agg := &db.HashAggOp{Ex: q.Ex, In: jn2,
		GroupBy: []db.Expr{db.YearOf{X: db.C(s, "o_orderdate")}}, GroupNms: []string{"o_year"},
		Aggs: []db.Agg{{F: db.Sum, Arg: brazil, Name: "brazil_rev"}, {F: db.Sum, Arg: revenue(s), Name: "total_rev"}}}
	proj := &db.ProjectOp{Ex: q.Ex, In: agg,
		Exprs: []db.Expr{db.Col{Idx: 0, Name: "o_year"},
			db.Arith{Op: db.Div, L: db.Col{Idx: 1, Name: "brazil_rev"}, R: db.Col{Idx: 2, Name: "total_rev"}}},
		Names: []string{"o_year", "mkt_share"}}
	return db.Collect(proj)
}

// Q9: product type profit. Candidate: part p_name LIKE '%green%' —
// color words scatter across most pages, so sampling refuses.
func q9(q *QCtx) ([]db.Row, error) {
	ps := q.D.Part.Sch
	p := q.Scan(q.D.Part, db.Like{X: db.C(ps, "p_name"), Pattern: "%green%"})
	jl := q.hash(q.Conv(q.D.Lineitem, nil), p, "l_partkey", "p_partkey")
	jsup := q.hash(jl, q.Conv(q.D.Supplier, nil), "l_suppkey", "s_suppkey")
	jpsSch := jsup.Schema().Concat(q.D.PartSupp.Sch)
	jps := &db.HashJoin{Ex: q.Ex, Left: jsup, Right: q.Conv(q.D.PartSupp, nil),
		LeftKey: db.C(jsup.Schema(), "l_partkey"), RightKey: db.C(q.D.PartSupp.Sch, "ps_partkey"),
		Residual: db.Cmp{Op: db.EQ, L: db.C(jpsSch, "ps_suppkey"), R: db.C(jpsSch, "l_suppkey")}}
	jo := q.hash(jps, q.Conv(q.D.Orders, nil), "l_orderkey", "o_orderkey")
	jn := q.hash(jo, q.Conv(q.D.Nation, nil), "s_nationkey", "n_nationkey")
	s := jn.Schema()
	profit := db.Arith{Op: db.Sub, L: revenue(s),
		R: db.Arith{Op: db.Mul, L: db.C(s, "ps_supplycost"), R: db.C(s, "l_quantity")}}
	agg := &db.HashAggOp{Ex: q.Ex, In: jn,
		GroupBy:  []db.Expr{db.C(s, "n_name"), db.YearOf{X: db.C(s, "o_orderdate")}},
		GroupNms: []string{"nation", "o_year"},
		Aggs:     []db.Agg{{F: db.Sum, Arg: profit, Name: "sum_profit"}}}
	return db.Collect(agg)
}

// Q10: returned item reporting. Candidate: orders over one quarter —
// offloads.
func q10(q *QCtx) ([]db.Row, error) {
	os, ls := q.D.Orders.Sch, q.D.Lineitem.Sch
	oPred := db.RangeD(os, "o_orderdate", "1993-10-01", "1994-01-01")
	o := q.Scan(q.D.Orders, oPred)
	jc := q.bnlCandidate(o, q.D.Orders, oPred, q.D.Customer, nil, func(s *db.Schema) db.Expr {
		return db.Cmp{Op: db.EQ, L: db.C(s, "o_custkey"), R: db.C(s, "c_custkey")}
	})
	jl := q.hash(q.Conv(q.D.Lineitem, db.EqS(ls, "l_returnflag", "R")), jc, "l_orderkey", "o_orderkey")
	jn := q.hash(jl, q.Conv(q.D.Nation, nil), "c_nationkey", "n_nationkey")
	s := jn.Schema()
	agg := &db.HashAggOp{Ex: q.Ex, In: jn,
		GroupBy: []db.Expr{db.C(s, "c_custkey"), db.C(s, "c_name"), db.C(s, "c_acctbal"),
			db.C(s, "n_name"), db.C(s, "c_phone")},
		GroupNms: []string{"c_custkey", "c_name", "c_acctbal", "n_name", "c_phone"},
		Aggs:     []db.Agg{{F: db.Sum, Arg: revenue(s), Name: "revenue"}}}
	srt := &db.SortOp{Ex: q.Ex, In: agg, Keys: []db.SortKey{{E: db.Col{Idx: 5, Name: "revenue"}, Desc: true}}}
	return db.Collect(&db.LimitOp{In: srt, N: 20})
}

// Q11: important stock identification. The only filter is on nation —
// far too small a table to offload (matches the paper's Q11 reasoning).
func q11(q *QCtx) ([]db.Row, error) {
	sn := q.hash(q.Conv(q.D.Supplier, nil),
		q.Scan(q.D.Nation, db.EqS(q.D.Nation.Sch, "n_name", "GERMANY")), "s_nationkey", "n_nationkey")
	jps := q.hash(q.Conv(q.D.PartSupp, nil), sn, "ps_suppkey", "s_suppkey")
	rows, err := db.Collect(jps)
	if err != nil {
		return nil, err
	}
	s := jps.Schema()
	value := db.Arith{Op: db.Mul, L: db.C(s, "ps_supplycost"), R: db.C(s, "ps_availqty")}
	total := 0.0
	for _, r := range rows {
		total += value.Eval(r).Float()
	}
	agg := &db.HashAggOp{Ex: q.Ex, In: db.NewMemScan(s, rows),
		GroupBy: []db.Expr{db.C(s, "ps_partkey")}, GroupNms: []string{"ps_partkey"},
		Aggs: []db.Agg{{F: db.Sum, Arg: value, Name: "value"}}}
	cut := db.DecF(total * 0.001)
	flt := &db.FilterOp{Ex: q.Ex, In: agg, Pred: db.Cmp{Op: db.GT, L: db.Col{Idx: 1, Name: "value"}, R: db.Lit(cut)}}
	return db.Collect(&db.SortOp{Ex: q.Ex, In: flt, Keys: []db.SortKey{{E: db.Col{Idx: 1, Name: "value"}, Desc: true}}})
}
