package db

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Sum AggFunc = iota
	CountAgg
	Avg
	Min
	Max
	CountDistinct
)

func (f AggFunc) String() string {
	return [...]string{"sum", "count", "avg", "min", "max", "count_distinct"}[f]
}

// Agg is one aggregate column: f(arg). For CountAgg, Arg may be nil
// (COUNT(*)).
type Agg struct {
	F    AggFunc
	Arg  Expr
	Name string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64 // cents or int accumulation
	sumT     Type
	min      Value
	max      Value
	seen     bool
	distinct map[string]struct{}
}

// add folds v into the state; scratch is the caller's reusable key
// buffer (CountDistinct forms v's key in it).
func (st *aggState) add(f AggFunc, v Value, scratch *[]byte) {
	st.count++
	switch f {
	case Sum, Avg:
		st.sumI += v.I
		st.sumT = v.T
	case Min:
		if !st.seen || Compare(v, st.min) < 0 {
			st.min = v
		}
	case Max:
		if !st.seen || Compare(v, st.max) > 0 {
			st.max = v
		}
	case CountDistinct:
		if st.distinct == nil {
			st.distinct = make(map[string]struct{})
		}
		*scratch = appendKey((*scratch)[:0], v)
		if _, ok := st.distinct[string(*scratch)]; !ok {
			st.distinct[string(*scratch)] = struct{}{}
		}
	}
	st.seen = true
}

func (st *aggState) result(f AggFunc) Value {
	switch f {
	case Sum:
		return Value{T: st.sumT, I: st.sumI}
	case CountAgg:
		return Int(st.count)
	case Avg:
		if st.count == 0 {
			return Dec(0)
		}
		if st.sumT == TDecimal {
			return Dec(st.sumI / st.count)
		}
		return DecF(float64(st.sumI) / float64(st.count))
	case Min:
		return st.min
	case Max:
		return st.max
	case CountDistinct:
		return Int(int64(len(st.distinct)))
	}
	panic("db: unknown aggregate")
}

// groupTable is the one grouping accumulator: it folds rows into
// per-group aggregate state and emits the groups in key order. The host
// HashAggOp, the device scan's aggregation stage and ShardedAggPlan.Merge
// (over partial rows) all run it.
type groupTable struct {
	groupBy []Expr
	aggs    []Agg
	groups  map[string]*aggGroup
	order   []string

	// Per-row scratch, so a row that lands in an existing group allocates
	// nothing: its group cells and the key bytes they form.
	cells Row
	key   []byte
}

type aggGroup struct {
	keyRow Row
	states []aggState
}

func newGroupTable(groupBy []Expr, aggs []Agg) *groupTable {
	return &groupTable{groupBy: groupBy, aggs: aggs, groups: make(map[string]*aggGroup)}
}

// appendKey appends the key form of v to dst: 's' and the bytes of a
// string, 'i' and the decimal digits of anything else. rows orders the
// groups by these bytes ("i10" < "i9") and every pinned digest depends on
// that order, so the form is fixed.
func appendKey(dst []byte, v Value) []byte {
	if v.T == TString {
		return append(append(dst, 's'), v.S...)
	}
	return strconv.AppendInt(append(dst, 'i'), v.I, 10)
}

// add folds one input row into its group.
func (t *groupTable) add(r Row) {
	t.cells, t.key = t.cells[:0], t.key[:0]
	for _, g := range t.groupBy {
		v := g.Eval(r)
		t.cells = append(t.cells, v)
		t.key = append(appendKey(t.key, v), 0)
	}
	grp, ok := t.groups[string(t.key)]
	if !ok {
		k := string(t.key)
		grp = &aggGroup{keyRow: slices.Clone(t.cells), states: make([]aggState, len(t.aggs))}
		t.groups[k] = grp
		t.order = append(t.order, k)
	}
	for i, a := range t.aggs {
		v := Int(1)
		if a.Arg != nil {
			v = a.Arg.Eval(r)
		}
		grp.states[i].add(a.F, v, &t.key)
	}
}

// rows returns one [group key..., aggregates...] row per group, ordered
// by group key. SQL scalar aggregates (no GROUP BY) yield one row even
// over empty input: every state at its zero value, which leaves the
// cells of Sum, Min and Max untyped (T = TInt).
func (t *groupTable) rows() []Row {
	if len(t.groupBy) == 0 && len(t.order) == 0 {
		t.groups[""] = &aggGroup{states: make([]aggState, len(t.aggs))}
		t.order = append(t.order, "")
	}
	sort.Strings(t.order)
	out := make([]Row, 0, len(t.order))
	for _, k := range t.order {
		grp := t.groups[k]
		row := make(Row, 0, len(grp.keyRow)+len(t.aggs))
		row = append(row, grp.keyRow...)
		for i, a := range t.aggs {
			row = append(row, grp.states[i].result(a.F))
		}
		out = append(out, row)
	}
	return out
}

// aggName is the output column name of aggregate i.
func aggName(a Agg, i int) string {
	if a.Name != "" {
		return a.Name
	}
	return fmt.Sprintf("%s%d", a.F, i)
}

// HashAggOp groups by key expressions and computes aggregates. Output
// rows are ordered by group key for determinism.
type HashAggOp struct {
	Ex       *Exec
	In       Iterator
	GroupBy  []Expr
	GroupNms []string
	Aggs     []Agg

	sch  *Schema
	rows []Row
	at   int
}

func (h *HashAggOp) exec() *Exec { return h.Ex }

// Schema returns [group columns..., aggregate columns...]. Before Open
// the column types are provisional (groups default to string, aggregates
// to decimal); names — which is what plan construction needs — are
// always exact.
func (h *HashAggOp) Schema() *Schema {
	if h.sch != nil {
		return h.sch
	}
	return h.schemaFrom(nil)
}

// schemaFrom names the output columns and types them after first, the
// first output row (nil = provisional types).
func (h *HashAggOp) schemaFrom(first Row) *Schema {
	cols := make([]Column, 0, len(h.GroupBy)+len(h.Aggs))
	for i := range h.GroupBy {
		cols = append(cols, Column{Name: colName(h.GroupNms, "g", i), T: TString})
	}
	for i, a := range h.Aggs {
		cols = append(cols, Column{Name: aggName(a, i), T: TDecimal})
	}
	for i := range first {
		cols[i].T = first[i].T
	}
	return NewSchema(cols...)
}

// inCols is the mask of the input columns the group keys and aggregate
// arguments read.
func (h *HashAggOp) inCols() []bool {
	need := readCols(width(h.In), h.GroupBy...)
	for _, a := range h.Aggs {
		colsOf(need, a.Arg)
	}
	return need
}

// Open narrows the input to the columns the groups and aggregates read,
// then drains it, grouping and aggregating.
func (h *HashAggOp) Open() error {
	narrow(h.In, h.inCols())
	tab := newGroupTable(h.GroupBy, h.Aggs)
	err := drain(h.In, h.Ex, func(in *RowBatch, n int) {
		h.Ex.chargeHost(hostAggCPR * float64(n))
		for ri := 0; ri < n; ri++ {
			tab.add(in.Row(ri))
		}
	})
	if err != nil {
		return err
	}
	h.rows = tab.rows()
	h.at = 0
	var first Row
	if len(h.rows) > 0 {
		first = h.rows[0]
	}
	h.sch = h.schemaFrom(first)
	return nil
}

// NextBatch emits grouped rows in key order.
func (h *HashAggOp) NextBatch(b *RowBatch) (int, error) { return emitRows(b, h.rows, &h.at), nil }

// Close releases group state.
func (h *HashAggOp) Close() error {
	h.rows = nil
	return nil
}

// ScalarAgg computes aggregates over the whole input (no grouping),
// always emitting exactly one row.
func ScalarAgg(ex *Exec, in Iterator, aggs ...Agg) *HashAggOp {
	return &HashAggOp{Ex: ex, In: in, Aggs: aggs}
}
