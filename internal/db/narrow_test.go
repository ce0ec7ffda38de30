package db

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"biscuit"
	"biscuit/internal/fault"
	"biscuit/internal/sim"
)

// The law of the column mask: a plan over real scans, which narrow
// prunes, returns row for row what the same plan returns over MemScans of
// the fully decoded tables, which it never prunes — and the modelled
// hardware pays exactly what it pays when nothing is pruned.

// lawCols is the law fixture's column order: an int, a decimal, a date
// and a string in every block, rotated, so each type sits at a block's
// start and end and a table's first and last columns differ in type.
var lawCols = []Type{TInt, TDecimal, TDate, TString, TDecimal, TDate, TString, TInt, TDate, TString, TInt, TDecimal}

// lawSchema names a table's columns by prefix, type letter and block:
// "i0", "d0", "t0", "s0", "d1", ... Each block of the second table starts
// at the third of its types, so its first column is a date and its last
// a string.
func lawSchema(prefix string, rot int) *Schema {
	cols := make([]Column, len(lawCols))
	for i := range cols {
		typ := lawCols[i/4*4+(i%4+rot)%4]
		cols[i] = Column{Name: fmt.Sprintf("%s%c%d", prefix, "idts"[typ], i/4), T: typ}
	}
	return NewSchema(cols...)
}

// lawRows generates n rows of sch. Column i1 of a table is its join
// key, drawn from [lo, lo+12); every ninth row's s1 is the NDP needle.
func lawRows(rng *rand.Rand, sch *Schema, n int, lo int) []Row {
	words := []string{"", "a", "bb", "carrot", "dune", "NEEDLEX", "ember"}
	rows := make([]Row, n)
	for r := range rows {
		row := make(Row, len(sch.Cols))
		for i, c := range sch.Cols {
			name := c.Name[len(c.Name)-2:]
			switch c.T {
			case TInt:
				row[i] = Int(rng.Int63() - rng.Int63())
				if name == "i1" {
					row[i] = Int(int64(lo + rng.Intn(12)))
				}
			case TDecimal:
				row[i] = Dec(rng.Int63n(1<<40) - 1<<39)
			case TDate:
				row[i] = DateYMD(1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28))
			case TString:
				row[i] = Str(words[rng.Intn(len(words))] + strings.Repeat("z", rng.Intn(40)))
				if name == "s1" && r%9 == 0 {
					row[i] = Str("NEEDLE")
				}
			}
		}
		if name := sch.Cols[0].Name; name[len(name)-2:] == "i0" {
			row[0] = Int(int64(r)) // a unique, ordered id for sort ties
		}
		rows[r] = row
	}
	return rows
}

// The law's world: how a plan's leaves are built.
const (
	lawReal   = iota // real scans, which narrow prunes
	lawOpaque        // the same scans behind a wrapper narrow does not know
	lawMem           // the oracle: MemScans of the fully decoded tables
)

// opaque hides a scan from narrow, so it decodes every cell.
type opaque struct{ Iterator }

type lawWorld struct {
	ex   *Exec
	mode int
	a, b *Table
	ix   *Index           // over b's join key
	full map[*Table][]Row // every table fully decoded (lawMem)
}

// conv is a host scan of t under pred.
func (w lawWorld) conv(t *Table, pred Expr) Iterator {
	return w.leaf(t, pred, w.ex.NewConvScan(t, pred))
}

// ndp is a device scan of t under pred, keyed on the needle.
func (w lawWorld) ndp(t *Table, pred Expr) Iterator {
	return w.leaf(t, pred, w.ex.NewNDPScan(t, []string{"NEEDLE"}, pred))
}

// deviceAgg is a device scan of t under pred that ships group rows.
func (w lawWorld) deviceAgg(t *Table, pred Expr, groupBy []Expr, aggs []Agg) Iterator {
	if w.mode == lawMem {
		return &HashAggOp{Ex: w.ex, In: w.leaf(t, pred, nil), GroupBy: groupBy, Aggs: aggs}
	}
	return w.leaf(t, pred, w.ex.NewNDPAggScan(t, []string{"NEEDLE"}, pred, groupBy, aggs))
}

func (w lawWorld) leaf(t *Table, pred Expr, scan Iterator) Iterator {
	switch w.mode {
	case lawOpaque:
		return opaque{scan}
	case lawMem:
		var it Iterator = NewMemScan(t.Sch, w.full[t])
		if pred != nil {
			it = &FilterOp{Ex: w.ex, In: it, Pred: pred}
		}
		return it
	}
	return scan
}

// lawShape is one law-test plan; b says whether it reads the second
// table.
type lawShape struct {
	name string
	b    bool
	plan func(w lawWorld) Iterator
}

// lawShapes is one plan per operator shape narrow knows, each under a
// column-dropping root so that the mask reaches the scans.
func lawShapes() []lawShape {
	a, b := lawSchema("", 0), lawSchema("b", 2)
	ab := a.Concat(b)
	c := func(name string) Col { return C(ab, name) }
	// proj is the column-dropping root. The oracle's narrows nothing
	// below it, so a join there keeps every cell of its rows.
	proj := func(w lawWorld, in Iterator, names ...string) Iterator {
		sch := in.Schema()
		exprs := make([]Expr, len(names))
		for i, n := range names {
			exprs[i] = C(sch, n)
		}
		if w.mode == lawMem {
			in = opaque{in}
		}
		return &ProjectOp{Ex: w.ex, In: in, Exprs: exprs}
	}
	needle := EqS(a, "s1", "NEEDLE")
	equi := Cmp{EQ, c("i1"), c("bi1")}
	// The self shapes join the first table with itself, so that they
	// run under the fault plan too: the right copy's columns end in "_r".
	aa := a.Concat(a)
	self := func(name string) Col { return C(aa, name) }
	key := C(a, "i1")
	below := func(col string, v int64) Expr { return Cmp{LT, C(a, col), Lit(Int(v))} }
	shapes := []lawShape{
		{"filter", false, func(w lawWorld) Iterator {
			in := w.conv(w.a, Cmp{GT, C(a, "t2"), Lit(MustDate("1994-06-01"))})
			return proj(w, &FilterOp{Ex: w.ex, In: in, Pred: Like{X: C(a, "s0"), Pattern: "%z%"}}, "d2", "i1")
		}},
		{"project", false, func(w lawWorld) Iterator {
			return &ProjectOp{Ex: w.ex, In: w.conv(w.a, nil), Exprs: []Expr{
				Arith{Add, C(a, "d1"), C(a, "i2")}, YearOf{C(a, "t0")}, Substr{C(a, "s2"), 2, 3}}}
		}},
		{"hash-agg", false, func(w lawWorld) Iterator {
			return &HashAggOp{Ex: w.ex, In: w.conv(w.a, Cmp{LT, C(a, "d0"), Lit(Dec(0))}),
				GroupBy: []Expr{C(a, "s0")}, Aggs: []Agg{
					{F: Sum, Arg: C(a, "d2")}, {F: Min, Arg: C(a, "t1")}, {F: Max, Arg: C(a, "s2")},
					{F: Avg, Arg: C(a, "i1")}, {F: CountDistinct, Arg: C(a, "t2")}, {F: CountAgg}}}
		}},
		{"scalar-agg", false, func(w lawWorld) Iterator {
			in := &FilterOp{Ex: w.ex, In: w.conv(w.a, nil), Pred: In{X: C(a, "i1"), Vals: []Value{Int(2), Int(3)}}}
			return ScalarAgg(w.ex, in, Agg{F: Sum, Arg: C(a, "d1")}, Agg{F: CountAgg})
		}},
		{"sort+limit", false, func(w lawWorld) Iterator {
			srt := &SortOp{Ex: w.ex, In: w.conv(w.a, nil), Keys: []SortKey{{E: C(a, "t1"), Desc: true}, {E: C(a, "i0")}}}
			return proj(w, &LimitOp{In: srt, N: 25}, "i0", "s2", "d1")
		}},
		{"bnl", true, func(w lawWorld) Iterator {
			j := &BNLJoin{Ex: w.ex, Outer: w.conv(w.a, nil), Inner: func() Iterator { return w.conv(w.b, nil) },
				On: AndOf(equi, Cmp{LT, c("d2"), c("bd0")})}
			return proj(w, j, "t2", "bs1", "i0")
		}},
		{"bnl-ndp-outer", true, func(w lawWorld) Iterator {
			j := &BNLJoin{Ex: w.ex, Outer: w.ndp(w.a, needle), Inner: func() Iterator { return w.conv(w.b, nil) }, On: equi}
			return proj(w, j, "bt2", "d1")
		}},
		{"hash", true, func(w lawWorld) Iterator {
			j := &HashJoin{Ex: w.ex, Left: w.conv(w.a, nil), Right: w.conv(w.b, nil),
				LeftKey: C(a, "i1"), RightKey: C(b, "bi1"), Residual: Cmp{LT, c("t1"), c("bt1")}}
			return proj(w, j, "s0", "bs2", "i2")
		}},
		{"semi", true, func(w lawWorld) Iterator {
			j := &HashJoin{Ex: w.ex, Left: w.conv(w.a, nil), Right: w.conv(w.b, nil), Semi: true,
				LeftKey: C(a, "i1"), RightKey: C(b, "bi1"), Residual: Cmp{GT, c("d1"), c("bd2")}}
			return proj(w, j, "s2", "t0")
		}},
		{"anti", true, func(w lawWorld) Iterator {
			j := &HashJoin{Ex: w.ex, Left: w.conv(w.a, nil), Right: w.conv(w.b, nil), Anti: true,
				LeftKey: C(a, "i1"), RightKey: C(b, "bi1"), Residual: Cmp{GT, c("d1"), c("bd2")}}
			return proj(w, j, "i0", "d2")
		}},
		{"inl", true, func(w lawWorld) Iterator {
			outer := w.conv(w.a, Cmp{LT, C(a, "d1"), Lit(Dec(0))})
			j := &INLJoin{Ex: w.ex, Outer: outer, Ix: w.ix, OuterKey: C(a, "i1"), Residual: Cmp{NE, c("s0"), c("bs0")}}
			return proj(w, j, "t0", "bd2", "bs0")
		}},
		{"ndp", false, func(w lawWorld) Iterator {
			return proj(w, w.ndp(w.a, needle), "d0", "t2", "i1")
		}},
		{"ndp-agg", false, func(w lawWorld) Iterator {
			return &HashAggOp{Ex: w.ex, In: w.ndp(w.a, needle), GroupBy: []Expr{YearOf{C(a, "t1")}},
				Aggs: []Agg{{F: Sum, Arg: C(a, "i1")}, {F: CountAgg}}}
		}},
		{"device-agg", false, func(w lawWorld) Iterator { // the device aggregates; narrow leaves its rows whole
			agg := w.deviceAgg(w.a, needle, []Expr{C(a, "s0")}, []Agg{{F: Max, Arg: C(a, "t2")}, {F: Sum, Arg: C(a, "d1")}})
			return proj(w, agg, "sum1", "g0")
		}},
		{"self-residual", false, func(w lawWorld) Iterator { // only the residual reads t2_r
			j := &HashJoin{Ex: w.ex, Left: w.ndp(w.a, needle), Right: w.conv(w.a, Cmp{LT, C(a, "d0"), Lit(Dec(0))}),
				LeftKey: key, RightKey: key, Residual: Cmp{LT, self("t1"), self("t2_r")}}
			return proj(w, j, "s2", "i1_r", "d1_r")
		}},
		{"self-key", false, func(w lawWorld) Iterator { // nothing reads the key i1_r once it is indexed
			j := &HashJoin{Ex: w.ex, Left: w.ndp(w.a, needle), Right: w.conv(w.a, Cmp{GT, C(a, "t0"), Lit(MustDate("1995-01-01"))}),
				LeftKey: key, RightKey: key}
			return proj(w, j, "d2", "s0_r", "t1_r")
		}},
		{"self-whole", false, func(w lawWorld) Iterator { // the device ships group rows, which narrow leaves whole
			groups := w.deviceAgg(w.a, needle, []Expr{key}, []Agg{{F: Max, Arg: C(a, "t2")}, {F: Sum, Arg: C(a, "d1")}})
			j := &HashJoin{Ex: w.ex, Left: w.ndp(w.a, needle), Right: groups, LeftKey: key, RightKey: C(groups.Schema(), "g0")}
			return proj(w, j, "i0", "sum1")
		}},
		{"self-empty", false, func(w lawWorld) Iterator { // no build rows: the anti join keeps every left row
			j := &HashJoin{Ex: w.ex, Left: w.ndp(w.a, needle), Right: w.conv(w.a, below("i0", 0)), Anti: true,
				LeftKey: key, RightKey: key, Residual: Cmp{NE, self("s0"), self("s0_r")}}
			return proj(w, j, "i0", "s2")
		}},
		{"self-reopen", false, func(w lawWorld) Iterator { // BNL opens and closes its inner HashJoin once a block
			inner := &HashJoin{Ex: w.ex, Left: w.conv(w.a, below("i0", 40)), Right: w.conv(w.a, below("i0", 30)),
				LeftKey: key, RightKey: key, Residual: Cmp{LE, self("d0"), self("d2_r")}}
			j := &BNLJoin{Ex: w.ex, Outer: w.ndp(w.a, needle), Inner: func() Iterator { return inner }}
			sch := j.Schema() // outer ++ inner ++ inner's right: "i1", "i1_r", "i1_r_r"
			j.On = Cmp{EQ, C(sch, "i1"), C(sch, "i1_r_r")}
			return proj(w, j, "s2", "t1_r", "d1_r_r")
		}},
		{"bnl-keyonly", false, func(w lawWorld) Iterator { // nothing above reads an outer column: the join buffer keeps the key alone
			j := &BNLJoin{Ex: w.ex, Outer: w.ndp(w.a, needle), Inner: func() Iterator { return w.conv(w.a, below("i0", 60)) },
				On: Cmp{EQ, self("i1"), self("i1_r")}}
			return proj(w, j, "s2_r", "t1_r")
		}},
		{"bnl-residual", false, func(w lawWorld) Iterator { // only the residual reads the outer d0
			j := &BNLJoin{Ex: w.ex, Outer: w.ndp(w.a, needle), Inner: func() Iterator { return w.conv(w.a, below("i0", 60)) },
				On: AndOf(Cmp{EQ, self("i1"), self("i1_r")}, Cmp{LT, self("d0"), self("d2_r")})}
			return proj(w, j, "s2", "t0_r")
		}},
	}
	for _, past := range []int{0, 1} { // an outer of JoinBufferRows rows, and of one more: a last block full to the row, or of one
		shapes = append(shapes, lawShape{fmt.Sprintf("bnl-boundary+%d", past), false, func(w lawWorld) Iterator {
			j := &BNLJoin{Ex: w.ex, Outer: w.conv(w.a, below("i0", int64(w.ex.JoinBufferRows+past))),
				Inner: func() Iterator { return w.conv(w.a, below("i0", 40)) }, On: Cmp{EQ, self("i1"), self("i1_r")}}
			return proj(w, j, "t2", "s1_r")
		}})
	}
	return shapes
}

// lawResult is what one shape did: its rows, the executor's counters,
// and the simulated time it took.
type lawResult struct {
	rows    []Row
	st      Stats
	elapsed sim.Time
}

// runLaw loads the fixture into sys — the second table only if a shape
// reads it — and runs the shapes in the given world, at the given batch
// size.
func runLaw(t *testing.T, sys *biscuit.System, mode, batch int, shapes []lawShape) map[string]lawResult {
	t.Helper()
	tables := []struct {
		name  string
		sch   *Schema
		n, lo int
	}{{"a", lawSchema("", 0), 1000, 0}, {"b", lawSchema("b", 2), 200, 6}}
	if !slices.ContainsFunc(shapes, func(s lawShape) bool { return s.b }) {
		tables = tables[:1]
	}
	d := Open(sys)
	out := map[string]lawResult{}
	sys.Run(func(h *biscuit.Host) {
		w := lawWorld{mode: mode, full: map[*Table][]Row{}}
		rng := rand.New(rand.NewSource(27))
		for _, tab := range tables {
			rows := lawRows(rng, tab.sch, tab.n, tab.lo)
			ld, err := d.NewLoader(h, tab.name, tab.sch, 64) // one write: a metadata sync under the fault plan can fail
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if err := ld.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := ld.Close(); err != nil {
				t.Fatal(err)
			}
			// Collect of a bare scan decodes every cell: it gives back the
			// rows as generated.
			full, err := Collect(NewExec(h, d).NewConvScan(d.Table(tab.name), nil))
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, "bare scan of "+tab.name, full, rows)
			w.full[d.Table(tab.name)] = full
		}
		w.a = d.Table("a")
		if len(tables) > 1 {
			w.b = d.Table("b")
			var err error
			if w.ix, err = d.BuildIndex(NewExec(h, d), w.b, "bi1"); err != nil {
				t.Fatal(err)
			}
		}
		for _, shape := range shapes {
			w.ex = NewExec(h, d)
			w.ex.BatchSize, w.ex.JoinBufferRows = batch, 64
			start := h.Now()
			rows, err := Collect(shape.plan(w))
			if err != nil {
				t.Fatalf("%s (mode %d, batch %d): %v", shape.name, mode, batch, err)
			}
			w.ex.FlushCost()
			out[shape.name] = lawResult{rows, w.ex.St, h.Now() - start}
		}
	})
	return out
}

// lawFaults is hot enough that both device scans of the fallback run die
// and fall back, and mild enough that every host read — the load's, the
// bare scans', the fallbacks' — gets through its retries. Both are
// properties of this seed over this fixture, as scanPlan's are of its.
var lawFaults = fault.Plan{Seed: 20, UncorrectableProb: 0.5}

// TestNarrowedPlansMatchFullRows: every shape over pruned scans returns
// the oracle's rows, and costs what it costs unpruned — the same Stats
// (RowsScanned among them) and the same simulated time, which is every
// host cycle charged — with an NDP scan that dies on a media error and
// falls back to a pruned ConvScan mid-query among them.
func TestNarrowedPlansMatchFullRows(t *testing.T) {
	all := lawShapes()
	oracle := runLaw(t, quickSys(), lawMem, 0, all)
	for _, name := range []string{"bnl", "hash", "semi", "anti", "inl", "ndp", "ndp-agg",
		"self-residual", "self-key", "self-whole", "self-empty", "self-reopen",
		"bnl-keyonly", "bnl-residual", "bnl-boundary+0", "bnl-boundary+1"} {
		if len(oracle[name].rows) == 0 {
			t.Fatalf("%s: the oracle returns no rows; the shape tests nothing", name)
		}
	}
	check := func(what string, got, whole map[string]lawResult) {
		t.Helper()
		for name, want := range oracle {
			wantRows(t, fmt.Sprintf("%s %s", what, name), got[name].rows, want.rows)
			if g, w := got[name], whole[name]; g.st != w.st || g.elapsed != w.elapsed {
				t.Fatalf("%s %s: pruned run charged %+v in %v, unpruned %+v in %v", what, name, g.st, g.elapsed, w.st, w.elapsed)
			}
		}
	}
	for _, batch := range joinBatchSizes {
		check(fmt.Sprintf("batch=%d", batch),
			runLaw(t, quickSys(), lawReal, batch, all), runLaw(t, quickSys(), lawOpaque, batch, all))
	}

	// Under the fault plan the device scans die and fall back. The second
	// table stays out: loading it fails under a plan this hot. The self
	// joins and the one-table BNL shapes run there too, for the rows they
	// hold; whether their device scans fall back is up to the plan's draws.
	var falling []lawShape
	for _, s := range all {
		if !s.b && (strings.HasPrefix(s.name, "ndp") || strings.HasPrefix(s.name, "self") || strings.HasPrefix(s.name, "bnl")) {
			falling = append(falling, s)
		}
	}
	for name := range oracle {
		if !slices.ContainsFunc(falling, func(s lawShape) bool { return s.name == name }) {
			delete(oracle, name)
		}
	}
	got := runLaw(t, faultSys(lawFaults), lawReal, 7, falling)
	check("fault batch=7", got, runLaw(t, faultSys(lawFaults), lawOpaque, 7, falling))
	for name, r := range got {
		if r.st.NDPFallbacks == 0 && strings.HasPrefix(name, "ndp") {
			t.Fatalf("fault %s: the device scan never fell back; the fallback's mask went untested", name)
		}
	}
}

// TestNarrowExtremes: a count(*) reads no column, so its scan — Conv or
// NDP — materializes no cell, unless the scan ships group rows; a plan
// that names a column its input does not have, or a mask of another
// width than the rows it is handed, is a plan bug, and panics before any
// scan opens.
func TestNarrowExtremes(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 3000, 50)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		ex := NewExec(h, d)
		for _, scan := range []Iterator{ex.NewConvScan(tab, nil), ex.NewNDPScan(tab, []string{"TARGETKEY"}, pred)} {
			counted, err := Collect(ScalarAgg(ex, scan, Agg{F: CountAgg}))
			if err != nil {
				t.Fatal(err)
			}
			// The scan keeps the mask the aggregate handed it; Collect
			// does not narrow, so draining it again shows what it decodes.
			rows, err := Collect(scan)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(rows)) != counted[0][0].I || len(rows) == 0 {
				t.Fatalf("%T: %d rows, count(*) %v", scan, len(rows), counted[0][0])
			}
			for _, r := range rows {
				if slices.ContainsFunc(r, func(v Value) bool { return v != Value{} }) {
					t.Fatalf("%T under count(*) decoded %v, want only zero cells", scan, r)
				}
			}
		}

		// An NDP scan that aggregates ships group rows, which narrow leaves
		// whole: the count above reads none of them, and it decodes them all.
		groups := ex.NewNDPAggScan(tab, []string{"TARGETKEY"}, pred, []Expr{C(tab.Sch, "ship")},
			[]Agg{{F: Sum, Arg: C(tab.Sch, "price")}, {F: Max, Arg: C(tab.Sch, "note")}})
		if _, err := Collect(ScalarAgg(ex, groups, Agg{F: CountAgg})); err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(groups)
		if err != nil || len(rows) == 0 {
			t.Fatalf("device aggregation: %d groups, err %v", len(rows), err)
		}
		for _, r := range rows {
			if r[0].T != TDate || r[1].I == 0 || r[2].S != "TARGETKEY" {
				t.Fatalf("device aggregation under count(*) decoded %v, want whole group rows", r)
			}
		}

		panicOf := func(f func()) (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			f()
			return ""
		}
		wide := NewSchema(append(slices.Clone(tab.Sch.Cols), Column{"extra", TInt})...)
		if msg := panicOf(func() {
			Collect(&ProjectOp{Ex: ex, In: ex.NewConvScan(tab, nil), Exprs: []Expr{C(wide, "extra")}})
		}); !strings.Contains(msg, "outside a 4-column row") {
			t.Fatalf("a column past the row: panic %q, want the mask's", msg)
		}
		if msg := panicOf(func() { narrow(ex.NewConvScan(tab, nil), make([]bool, 5)) }); !strings.Contains(msg, "a 5-column mask") {
			t.Fatalf("a mask wider than the row: panic %q, want narrow's", msg)
		}
	})
}
