package db

import "fmt"

// ShardedAggPlan decomposes a grouped aggregation into a per-shard
// partial plan plus a host-side merge, which is what lets one logical
// query scatter over an array of devices holding horizontal partitions
// of a table and still produce exactly the rows a single-device run
// would: each shard runs an ordinary HashAggOp computing decomposed
// partials (Avg splits into Sum+Count), and Merge folds the partial
// rows through the same group table — a second aggregation, grouped by
// the partial rows' key columns, in which sums and counts merge by
// Sum and Min/Max by themselves.
//
// CountDistinct does not decompose (distinct sets would have to ship
// whole) and is rejected at plan time.
type ShardedAggPlan struct {
	GroupBy  []Expr
	GroupNms []string
	Aggs     []Agg

	partial []Agg       // per-shard aggregate columns
	keys    []Expr      // Merge's group key: the partial rows' first columns
	merge   []Agg       // Merge's aggregates, one per partial column
	finals  []finalSpec // how each requested agg reads the merged partials
}

// finalSpec maps one requested aggregate onto merged partial columns:
// a is the primary partial (sum/count/min/max), b the count partial an
// Avg needs for its final division (-1 for every other aggregate).
type finalSpec struct{ a, b int }

// NewShardedAggPlan builds the decomposition for f(args) grouped by
// groupBy. Column naming follows HashAggOp: names[i] labels group
// column i, each Agg carries its own output name.
func NewShardedAggPlan(groupBy []Expr, names []string, aggs []Agg) (*ShardedAggPlan, error) {
	p := &ShardedAggPlan{GroupBy: groupBy, GroupNms: names, Aggs: aggs}
	for i := range groupBy {
		p.keys = append(p.keys, Col{Idx: i})
	}
	// add appends one partial column and the aggregate that merges it
	// across shards, returning the column's index among the partials.
	add := func(a Agg) int {
		mf := a.F
		if mf == CountAgg {
			mf = Sum // counts merge by addition
		}
		p.merge = append(p.merge, Agg{F: mf, Arg: Col{Idx: len(groupBy) + len(p.partial)}})
		p.partial = append(p.partial, a)
		return len(p.partial) - 1
	}
	for _, a := range aggs {
		switch a.F {
		case Sum, CountAgg, Min, Max:
			p.finals = append(p.finals, finalSpec{a: add(a), b: -1})
		case Avg:
			p.finals = append(p.finals, finalSpec{
				a: add(Agg{F: Sum, Arg: a.Arg, Name: a.Name + "_psum"}),
				b: add(Agg{F: CountAgg, Arg: a.Arg, Name: a.Name + "_pcount"})})
		default:
			return nil, fmt.Errorf("db: %s does not decompose for sharded execution", a.F)
		}
	}
	if len(groupBy) == 0 {
		// A scalar aggregate yields a row even over no input, so a shard
		// that saw nothing still ships one all-zero partial row. The last
		// partial of a scalar plan counts the rows the shard saw, which is
		// how Merge tells that row from a real one.
		add(Agg{F: CountAgg, Name: "_pseen"})
	}
	return p, nil
}

// ShardOp builds the per-shard partial aggregation over in, to be run
// on the shard's own Exec.
func (p *ShardedAggPlan) ShardOp(ex *Exec, in Iterator) *HashAggOp {
	return &HashAggOp{Ex: ex, In: in, GroupBy: p.GroupBy, GroupNms: p.GroupNms, Aggs: p.partial}
}

// Merge recombines per-shard partial rows (each [group..., partials...]
// as emitted by ShardOp) into final rows [group..., aggs...], ordered
// by group key exactly like a single-device HashAggOp — it is the same
// groupTable, fed partial rows.
func (p *ShardedAggPlan) Merge(partials [][]Row) []Row {
	nG := len(p.GroupBy)
	tab := newGroupTable(p.keys, p.merge)
	for _, shard := range partials {
		for _, r := range shard {
			// A scalar shard that saw no rows contributes nothing: its
			// zero cells are untyped and are not values of any column.
			if nG > 0 || r[len(r)-1].I > 0 {
				tab.add(r)
			}
		}
	}
	merged := tab.rows()
	for i, m := range merged {
		row := append(make(Row, 0, nG+len(p.finals)), m[:nG]...)
		for _, fs := range p.finals {
			v := m[nG+fs.a]
			if fs.b >= 0 {
				// The merged sum and count are the state a single-device
				// Avg would have ended in; finish it the same way.
				v = (&aggState{sumI: v.I, sumT: v.T, count: m[nG+fs.b].I}).result(Avg)
			}
			row = append(row, v)
		}
		merged[i] = row
	}
	return merged
}
