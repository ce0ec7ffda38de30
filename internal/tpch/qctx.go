package tpch

import (
	"fmt"

	"biscuit/internal/db"
	"biscuit/internal/db/planner"
)

// QCtx is the planning and execution context of one query run. With Pl
// set, candidate scans consult the offload planner and plans follow the
// paper's NDP-first join-order heuristic; with Pl nil the run is the
// Conv baseline and joins follow MariaDB's smallest-raw-table-first
// order.
type QCtx struct {
	Ex *db.Exec
	D  *Data
	Pl *planner.Planner

	// Decisions records every planner consultation (for Fig. 10's
	// query categorization); Offloaded is true if any scan offloaded.
	Decisions []planner.Decision
	Offloaded bool

	// DisableReorder keeps MariaDB's smallest-raw-table-first join order
	// even when a scan offloads — the ablation isolating how much of the
	// win comes from the paper's NDP-first join-order heuristic.
	DisableReorder bool
}

// Scan plans a (possibly offloaded) scan of t under pred.
func (q *QCtx) Scan(t *db.Table, pred db.Expr) db.Iterator {
	if q.Pl == nil {
		return q.Ex.NewConvScan(t, pred)
	}
	it, dec := q.Pl.PlanScan(q.Ex, t, pred)
	q.Decisions = append(q.Decisions, dec)
	if dec.Offloaded {
		q.Offloaded = true
	}
	return it
}

// Conv always builds a host-side scan (for inner rescans and small
// dimension tables).
func (q *QCtx) Conv(t *db.Table, pred db.Expr) db.Iterator {
	return q.Ex.NewConvScan(t, pred)
}

// bnlCandidate builds the join between the offload-candidate scan and
// partner following the paper's policies:
//
//   - Biscuit (candidate offloaded): the NDP-filtered candidate goes
//     FIRST (outer); the partner is the rescanned inner.
//   - Conv: MariaDB places the smallest *raw* table first, so whichever
//     of candidate/partner has fewer pages becomes the outer and the
//     other — typically the big filtered fact table — is fully
//     rescanned per join-buffer block.
//
// candScan must scan candTab (with its filter); partnerPred filters the
// partner scan.
func (q *QCtx) bnlCandidate(candScan db.Iterator, candTab *db.Table, candPred db.Expr,
	partner *db.Table, partnerPred db.Expr, on func(*db.Schema) db.Expr) db.Iterator {

	if (q.Offloaded && !q.DisableReorder) || candTab.Pages <= partner.Pages {
		// Candidate first: either the NDP heuristic, or the candidate
		// happens to be the smaller table anyway.
		sch := candTab.Sch.Concat(partner.Sch)
		return &db.BNLJoin{
			Ex:    q.Ex,
			Outer: candScan,
			Inner: func() db.Iterator { return q.Conv(partner, partnerPred) },
			On:    on(sch),
		}
	}
	// Conv order: partner (smaller raw table) outer, candidate inner —
	// the candidate table is rescanned once per block.
	sch := partner.Sch.Concat(candTab.Sch)
	return &db.BNLJoin{
		Ex:    q.Ex,
		Outer: q.Conv(partner, partnerPred),
		Inner: func() db.Iterator { return q.Conv(candTab, candPred) },
		On:    on(sch),
	}
}

// hash builds an equality hash join (stand-in for MariaDB's indexed
// lookups on joins that do not involve the offload candidate).
func (q *QCtx) hash(left db.Iterator, right db.Iterator, leftCol, rightCol string) *db.HashJoin {
	return &db.HashJoin{
		Ex: q.Ex, Left: left, Right: right,
		LeftKey:  db.C(left.Schema(), leftCol),
		RightKey: db.C(right.Schema(), rightCol),
	}
}

// Query is one TPC-H query.
type Query struct {
	ID    int
	Title string
	Run   func(q *QCtx) ([]db.Row, error)
}

// All returns the full 22-query suite in order.
func All() []Query {
	return []Query{
		{1, "pricing summary report", q1},
		{2, "minimum cost supplier", q2},
		{3, "shipping priority", q3},
		{4, "order priority checking", q4},
		{5, "local supplier volume", q5},
		{6, "forecasting revenue change", q6},
		{7, "volume shipping", q7},
		{8, "national market share", q8},
		{9, "product type profit", q9},
		{10, "returned item reporting", q10},
		{11, "important stock identification", q11},
		{12, "shipping modes and order priority", q12},
		{13, "customer distribution", q13},
		{14, "promotion effect", q14},
		{15, "top supplier", q15},
		{16, "parts/supplier relationship", q16},
		{17, "small-quantity-order revenue", q17},
		{18, "large volume customer", q18},
		{19, "discounted revenue", q19},
		{20, "potential part promotion", q20},
		{21, "suppliers who kept orders waiting", q21},
		{22, "global sales opportunity", q22},
	}
}

// ByID returns query id (1-22).
func ByID(id int) Query {
	for _, q := range All() {
		if q.ID == id {
			return q
		}
	}
	panic(fmt.Sprintf("tpch: no query %d", id))
}

// AggQuery is a single-table aggregate over lineitem: the scan
// predicate, the group keys and their names, and the aggregates. Q1 and
// Q6 are defined once as AggQuerys, so the single-device plans, the
// serving layer's sharded ones and the aggregate-pushdown ablation run
// the same expressions.
type AggQuery struct {
	Pred     db.Expr
	GroupBy  []db.Expr
	GroupNms []string
	Aggs     []db.Agg
}

// lineitemAgg runs a over the candidate scan of lineitem.
func (q *QCtx) lineitemAgg(a AggQuery) ([]db.Row, error) {
	return db.Collect(&db.HashAggOp{Ex: q.Ex, In: q.Scan(q.D.Lineitem, a.Pred),
		GroupBy: a.GroupBy, GroupNms: a.GroupNms, Aggs: a.Aggs})
}

// revenue builds l_extendedprice * (1 - l_discount) over sch.
func revenue(sch *db.Schema) db.Expr {
	return db.Arith{Op: db.Mul, L: db.C(sch, "l_extendedprice"),
		R: db.Arith{Op: db.Sub, L: db.Lit(db.Dec(100)), R: db.C(sch, "l_discount")}}
}
