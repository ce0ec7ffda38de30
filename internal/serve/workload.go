package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/tpch"
	"biscuit/internal/weblog"
)

// shardCtx is everything a per-shard partial plan may touch: the shard's
// host view and executor, the shard's table views — the replica tables
// when the slot has migrated — and the per-request planner stream.
type shardCtx struct {
	host    *biscuit.Host
	ex      *db.Exec
	data    *tpch.Data
	rng     *rand.Rand
	replica bool // serving from the replica copy after migration
}

// workload is one servable query: a per-shard partial plan plus the
// host-side gather. Plans are built once per server against the shard
// schemas (identical on every shard).
type workload struct {
	name     string
	runShard func(c *shardCtx) ([]db.Row, error)
	merge    func(partials [][]db.Row) []db.Row
}

// newWorkload resolves a built-in workload by name. ref supplies the
// schemas the plan expressions bind to.
func newWorkload(name string, ref *tpch.Data) (*workload, error) {
	switch name {
	case "q6":
		return q6Workload(ref)
	case "q1":
		return q1Workload(ref)
	case "qpoint":
		return qpointWorkload(ref)
	case "wlog":
		return wlogWorkload()
	}
	return nil, fmt.Errorf("unknown workload %q (want q6, q1, qpoint or wlog)", name)
}

// plannedScan consults the offload planner for the shard scan, seeding
// its sampling probe from the caller's per-request stream.
func plannedScan(ex *db.Exec, t *db.Table, pred db.Expr, rng *rand.Rand) db.Iterator {
	pl := planner.Default()
	pl.Rand = rng
	it, _ := pl.PlanScan(ex, t, pred)
	return it
}

// q6Workload is TPC-H Q6 sharded: the selective shipdate/discount/
// quantity predicate offloads as an NDP scan per shard; revenue sums
// merge by addition.
func q6Workload(ref *tpch.Data) (*workload, error) {
	ls := ref.Lineitem.Sch
	pred := db.AndOf(
		db.RangeD(ls, "l_shipdate", "1994-01-01", "1995-01-01"),
		db.Between{X: db.C(ls, "l_discount"), Lo: db.Dec(5), Hi: db.Dec(7)},
		db.Cmp{Op: db.LT, L: db.C(ls, "l_quantity"), R: db.Lit(db.Int(24))},
	)
	rev := db.Arith{Op: db.Mul, L: db.C(ls, "l_extendedprice"), R: db.C(ls, "l_discount")}
	plan, err := db.NewShardedAggPlan(nil, nil, []db.Agg{{F: db.Sum, Arg: rev, Name: "revenue"}})
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "q6",
		runShard: func(c *shardCtx) ([]db.Row, error) {
			return db.Collect(plan.ShardOp(c.ex, plannedScan(c.ex, c.data.Lineitem, pred, c.rng)))
		},
		merge: plan.Merge,
	}, nil
}

// q1Workload is TPC-H Q1 sharded: the ~97%-selective predicate never
// offloads (Conv scan per shard); the eight aggregates decompose into
// partials — Avg splitting into Sum+Count — and merge by group key.
func q1Workload(ref *tpch.Data) (*workload, error) {
	ls := ref.Lineitem.Sch
	pred := db.Cmp{Op: db.LE, L: db.C(ls, "l_shipdate"), R: db.Lit(db.MustDate("1998-09-02"))}
	disc := db.Arith{Op: db.Sub, L: db.Lit(db.Dec(100)), R: db.C(ls, "l_discount")}
	revenue := db.Arith{Op: db.Mul, L: db.C(ls, "l_extendedprice"), R: disc}
	charge := db.Arith{Op: db.Mul, L: revenue,
		R: db.Arith{Op: db.Add, L: db.Lit(db.Dec(100)), R: db.C(ls, "l_tax")}}
	plan, err := db.NewShardedAggPlan(
		[]db.Expr{db.C(ls, "l_returnflag"), db.C(ls, "l_linestatus")},
		[]string{"l_returnflag", "l_linestatus"},
		[]db.Agg{
			{F: db.Sum, Arg: db.C(ls, "l_quantity"), Name: "sum_qty"},
			{F: db.Sum, Arg: db.C(ls, "l_extendedprice"), Name: "sum_base_price"},
			{F: db.Sum, Arg: revenue, Name: "sum_disc_price"},
			{F: db.Sum, Arg: charge, Name: "sum_charge"},
			{F: db.Avg, Arg: db.C(ls, "l_quantity"), Name: "avg_qty"},
			{F: db.Avg, Arg: db.C(ls, "l_extendedprice"), Name: "avg_price"},
			{F: db.Avg, Arg: db.C(ls, "l_discount"), Name: "avg_disc"},
			{F: db.CountAgg, Name: "count_order"},
		})
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "q1",
		runShard: func(c *shardCtx) ([]db.Row, error) {
			return db.Collect(plan.ShardOp(c.ex, plannedScan(c.ex, c.data.Lineitem, pred, c.rng)))
		},
		merge: plan.Merge,
	}, nil
}

// qpointWorkload is a narrow row-set lookup — lineitems shipped on one
// day — whose gather is plain concatenation ordered by (l_orderkey,
// l_linenumber) so the merged row set is shard-count invariant.
func qpointWorkload(ref *tpch.Data) (*workload, error) {
	ls := ref.Lineitem.Sch
	pred := db.Cmp{Op: db.EQ, L: db.C(ls, "l_shipdate"), R: db.Lit(db.MustDate("1995-06-17"))}
	okey, oline := ls.Col("l_orderkey"), ls.Col("l_linenumber")
	return &workload{
		name: "qpoint",
		runShard: func(c *shardCtx) ([]db.Row, error) {
			return db.Collect(plannedScan(c.ex, c.data.Lineitem, pred, c.rng))
		},
		merge: func(partials [][]db.Row) []db.Row {
			var out []db.Row
			for _, p := range partials {
				out = append(out, p...)
			}
			sort.Slice(out, func(i, j int) bool {
				if out[i][okey].I != out[j][okey].I {
					return out[i][okey].I < out[j][okey].I
				}
				return out[i][oline].I < out[j][oline].I
			})
			return out
		},
	}, nil
}

// wlogNeedle is the needle GenerateShards plants and wlog queries count.
const wlogNeedle = "NeedleBot/9.9"

// wlogWorkload is the paper's string-search application served as a
// tenant workload: each shard counts needle hits in its slice of the
// sharded web-log corpus with the hardware pattern matcher, falling
// back to the host grep path if the NDP path faults (the same
// batch-aligned degradation the db scans use). A migrated slot searches
// the successor device's replica corpus file. Counts merge by addition,
// so the total is shard-placement invariant.
func wlogWorkload() (*workload, error) {
	return &workload{
		name: "wlog",
		runShard: func(c *shardCtx) ([]db.Row, error) {
			file := weblog.LogFile
			if c.replica {
				file = weblog.ReplicaFile
			}
			n, err := weblog.SearchNDPIn(c.host, file, wlogNeedle)
			if err != nil {
				if n, err = weblog.SearchConvIn(c.host, file, wlogNeedle); err != nil {
					return nil, err
				}
			}
			return []db.Row{{db.Int(n)}}, nil
		},
		merge: func(partials [][]db.Row) []db.Row {
			var total int64
			for _, p := range partials {
				for _, r := range p {
					total += r[0].I
				}
			}
			return []db.Row{{db.Int(total)}}
		},
	}, nil
}
