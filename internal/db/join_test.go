package db

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"biscuit"
)

// pairLoop is the joins' oracle: every pair of outer × inner that on
// accepts (nil accepts all), outer columns first, walking the inner side
// in the outer loop when innerMajor is set and the outer side otherwise.
func pairLoop(outer, inner []Row, on Expr, innerMajor bool) []Row {
	var out []Row
	visit := func(o, i Row) {
		if row := append(o.Clone(), i...); on == nil || Truthy(on.Eval(row)) {
			out = append(out, row)
		}
	}
	if innerMajor {
		for _, i := range inner {
			for _, o := range outer {
				visit(o, i)
			}
		}
		return out
	}
	for _, o := range outer {
		for _, i := range inner {
			visit(o, i)
		}
	}
	return out
}

// wantRows fails unless got equals want row for row, in order.
func wantRows(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if g, w := renderRows(got), renderRows(want); !slices.Equal(g, w) {
		t.Fatalf("%s: %d rows, want %d\n got  %v\n want %v", what, len(g), len(w), g, w)
	}
}

// joinFixture is one pair of stored tables for the oracle test and the
// rows they hold, in load order.
type joinFixture struct {
	name         string
	oTab, iTab   *Table
	outer, inner []Row
	ix           *Index // over the inner key, when it is an integer
}

// loadJoinFixture stores nOuter × nInner rows keyed by type kt. Outer
// keys are drawn from [0, 12) and inner keys from [6, 18): duplicates on
// both sides, keys on one side only.
func loadJoinFixture(t *testing.T, h *biscuit.Host, d *Database, rng *rand.Rand, kt Type, name string, nOuter, nInner int) joinFixture {
	t.Helper()
	key := func(i int) Value {
		switch kt {
		case TDate:
			return DateYMD(1995, 2, 20+i) // runs over the month's end
		case TString:
			return Str(fmt.Sprintf("k%02d", i))
		}
		return Int(int64(i))
	}
	load := func(tab string, sch *Schema, n int, row func() Row) (*Table, []Row) {
		var rows []Row
		for i := 0; i < n; i++ {
			rows = append(rows, row())
		}
		return storeTable(t, h, d, tab, sch, rows), rows
	}
	f := joinFixture{name: name}
	f.oTab, f.outer = load("o_"+name, NewSchema(Column{"ok", kt}, Column{"ov", TInt}, Column{"os", TString}), nOuter, func() Row {
		return Row{key(rng.Intn(12)), Int(int64(rng.Intn(10))), Str("o")}
	})
	f.iTab, f.inner = load("i_"+name, NewSchema(Column{"ik", kt}, Column{"iv", TInt}), nInner, func() Row {
		return Row{key(6 + rng.Intn(12)), Int(int64(rng.Intn(10)))}
	})
	if kt == TInt {
		var err error
		if f.ix, err = d.BuildIndex(NewExec(h, d), f.iTab, "ik"); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// storeTable stores rows as table tab, eight rows a page.
func storeTable(t *testing.T, h *biscuit.Host, d *Database, tab string, sch *Schema, rows []Row) *Table {
	t.Helper()
	ld, err := d.NewLoader(h, tab, sch, 8)
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
	return d.Table(tab)
}

// checkBNL runs BNLJoin over the fixture and holds it to the pair loop
// run block by block: rows in order, one inner scan per block, and flat
// BNL's charge of HostJoinCPR per pair of block row × inner row.
func (f joinFixture) checkBNL(t *testing.T, ex *Exec, what string, on Expr) {
	t.Helper()
	var want []Row
	blocks, pairs := 0, 0
	for block := range slices.Chunk(f.outer, ex.JoinBufferRows) {
		want = append(want, pairLoop(block, f.inner, on, true)...)
		blocks++
		pairs += len(block) * len(f.inner)
	}
	got, err := Collect(&BNLJoin{Ex: ex, Outer: ex.NewConvScan(f.oTab, nil),
		Inner: func() Iterator { return ex.NewConvScan(f.iTab, nil) }, On: on})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, "BNL "+what, got, want)
	if ex.St.ConvScans != int64(1+blocks) {
		t.Fatalf("BNL %s: %d scans, want 1 + %d blocks", what, ex.St.ConvScans, blocks)
	}
	// An unfiltered ConvScan pays through HostScan, so all that is pending
	// is the join's; the fixture's size keeps it under chargeHost's flush
	// threshold.
	if charged := hostJoinCPR * float64(pairs); ex.pendingCycles != charged {
		t.Fatalf("BNL %s: charged %v host cycles, want %v", what, ex.pendingCycles, charged)
	}
}

// checkKeyed runs the joins that take the equality as key expressions —
// HashJoin's three flavours and, over an integer key, INLJoin — against
// the pair loop in their order: outer-row-major, inner load order within.
func (f joinFixture) checkKeyed(t *testing.T, ex *Exec, what string, on, residual Expr) {
	t.Helper()
	collect := func(it Iterator) []Row {
		rows, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	hash := func(semi, anti bool) []Row {
		return collect(&HashJoin{Ex: ex, Left: ex.NewConvScan(f.oTab, nil), Right: ex.NewConvScan(f.iTab, nil),
			LeftKey: C(f.oTab.Sch, "ok"), RightKey: C(f.iTab.Sch, "ik"), Residual: residual, Semi: semi, Anti: anti})
	}
	want := pairLoop(f.outer, f.inner, on, false)
	wantRows(t, "hash "+what, hash(false, false), want)
	var semi, anti []Row
	for _, o := range f.outer {
		if len(pairLoop([]Row{o}, f.inner, on, false)) > 0 {
			semi = append(semi, o)
		} else {
			anti = append(anti, o)
		}
	}
	wantRows(t, "semi "+what, hash(true, false), semi)
	wantRows(t, "anti "+what, hash(false, true), anti)
	if f.ix != nil {
		inl := &INLJoin{Ex: ex, Outer: ex.NewConvScan(f.oTab, nil), Ix: f.ix, OuterKey: C(f.oTab.Sch, "ok"), Residual: residual}
		wantRows(t, "INL "+what, collect(inl), want)
	}
}

// TestJoinsMatchPairLoop holds the three joins to a nested loop over
// materialized rows: same rows in each join's own order, the inner
// relation rescanned once per block, and — the sim charge as a law, not
// only through baselines — flat BNL's HostJoinCPR × Σ |block| × m paid
// whatever the process did to find the pairs.
func TestJoinsMatchPairLoop(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		rng := rand.New(rand.NewSource(24))
		shapes := []struct {
			name           string
			nOuter, nInner int
		}{{"both", 40, 30}, {"emptyOuter", 0, 30}, {"emptyInner", 40, 0}}
		for _, kt := range []Type{TInt, TDate, TString} {
			for _, shape := range shapes {
				f := loadJoinFixture(t, h, d, rng, kt, fmt.Sprintf("%v_%s", kt, shape.name), shape.nOuter, shape.nInner)
				sch := f.oTab.Sch.Concat(f.iTab.Sch)
				equi := Cmp{EQ, C(sch, "ok"), C(sch, "ik")}
				less := Cmp{LT, C(sch, "ov"), C(sch, "iv")}
				conds := []struct {
					name     string
					on       Expr
					keyed    bool // equi is the keyed joins' key pair, residual the rest
					residual Expr
				}{
					{"equi", equi, true, nil},
					{"swapped", Cmp{EQ, C(sch, "ik"), C(sch, "ok")}, false, nil},
					{"equi+residual", AndOf(equi, less), true, less},
					{"residual+equi", AndOf(less, equi), false, nil},
					{"less", less, false, nil},
					{"nil", nil, false, nil},
				}
				for _, c := range conds {
					for _, batch := range joinBatchSizes {
						for _, buffer := range []int{1, 3, 64} {
							ex := NewExec(h, d)
							ex.JoinBufferRows, ex.BatchSize = buffer, batch
							f.checkBNL(t, ex, fmt.Sprintf("%s on=%s buffer=%d batch=%d", f.name, c.name, buffer, batch), c.on)
						}
						if c.keyed { // no join buffer in these
							ex := NewExec(h, d)
							ex.BatchSize = batch
							f.checkKeyed(t, ex, fmt.Sprintf("%s on=%s batch=%d", f.name, c.name, batch), c.on, c.residual)
						}
					}
				}
			}
		}
	})
}

// TestJoinKeysAreTyped: keying on Value must keep Compare's rule. The
// old formatted key folded int, decimal and date into one "i%d", so
// Int(5) joined Dec(5) — 5 against 0.05 — silently; a bare map lookup
// would silently match nothing instead. All three joins panic as Compare
// does.
func TestJoinKeysAreTyped(t *testing.T) {
	l := NewSchema(Column{"lk", TInt})
	r := NewSchema(Column{"rk", TDecimal})
	left, right := []Row{{Int(5)}}, []Row{{Dec(5)}}
	ex := &Exec{JoinBufferRows: 4}
	both := l.Concat(r)
	joins := []struct {
		name string
		it   Iterator
	}{
		{"HashJoin", &HashJoin{Ex: ex, Left: NewMemScan(l, left), Right: NewMemScan(r, right), LeftKey: C(l, "lk"), RightKey: C(r, "rk")}},
		{"BNLJoin", &BNLJoin{Ex: ex, Outer: NewMemScan(l, left), Inner: func() Iterator { return NewMemScan(r, right) },
			On: Cmp{EQ, C(both, "lk"), C(both, "rk")}}},
	}
	panicOf := func(it Iterator) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		Collect(it)
		return ""
	}
	for _, j := range joins {
		if msg := panicOf(j.it); !strings.Contains(msg, "db: comparing") {
			t.Fatalf("%s of int with decimal keys: panic %q, want Compare's", j.name, msg)
		}
	}

	// INLJoin's B+tree holds integer keys. It used to look up any outer
	// key by its I field: a string key found key 0, and a decimal joined
	// by its cents.
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		ld, err := d.NewLoader(h, "keys", NewSchema(Column{"ik", TInt}), 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{0, 5} {
			if err := ld.Add(Row{Int(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		ix, err := d.BuildIndex(NewExec(h, d), d.Table("keys"), "ik")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Value{Str("k"), Dec(5)} {
			outer := NewSchema(Column{"ok", k.T})
			inl := &INLJoin{Ex: NewExec(h, d), Outer: NewMemScan(outer, []Row{{k}}), Ix: ix, OuterKey: C(outer, "ok")}
			if msg := panicOf(inl); !strings.Contains(msg, "db: comparing") {
				t.Fatalf("INLJoin of %v with int keys: panic %q, want Compare's", k.T, msg)
			}
		}
	})

	// Equal cells are one key whatever their unread field holds.
	odd := []Row{{Value{T: TInt, I: 5, S: "left over"}}}
	rows, err := Collect(&HashJoin{Ex: ex, Left: NewMemScan(l, left), Right: NewMemScan(l, odd), LeftKey: C(l, "lk"), RightKey: C(l, "lk")})
	if err != nil || len(rows) != 1 {
		t.Fatalf("join on a non-canonical key cell: %d rows, err %v, want 1", len(rows), err)
	}
}

// bnlProbe builds the probe-shaped join the allocation bound and
// BenchmarkBNLJoin run: one full 512-row block of distinct keys, and
// nInner inner rows with exactly one partner each.
func bnlProbe(h *biscuit.Host, d *Database, nInner int) *BNLJoin {
	const block = 512
	oSch := NewSchema(Column{"ok", TInt}, Column{"ov", TString})
	iSch := NewSchema(Column{"ik", TInt}, Column{"iv", TDecimal})
	outer := make([]Row, block)
	for i := range outer {
		outer[i] = Row{Int(int64(i)), Str("outer")}
	}
	inner := make([]Row, nInner)
	for i := range inner {
		inner[i] = Row{Int(int64(i * 7 % block)), Dec(int64(i))}
	}
	ex := NewExec(h, d)
	ex.JoinBufferRows = block
	sch := oSch.Concat(iSch)
	return &BNLJoin{Ex: ex, Outer: NewMemScan(oSch, outer), Inner: func() Iterator { return NewMemScan(iSch, inner) },
		On: Cmp{EQ, C(sch, "ok"), C(sch, "ik")}}
}

// TestBNLJoinOutputAllocation: joined rows come from the join's slab,
// which emit recycles once they have gone out, and the join buffer's rows
// from a slab recycled with the block; the key index chains positions
// through one slice. Nothing is allocated per match or per block row, so
// the bound is a constant whatever the sizes: batches, chunks while the
// slabs first grow, and map and slice growth.
func TestBNLJoinOutputAllocation(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		for _, matches := range []int{1000, 10000} {
			j := bnlProbe(h, d, matches)
			allocs := testing.AllocsPerRun(3, func() {
				if n, err := drain(j); err != nil || n != matches {
					t.Fatalf("%d rows, err %v, want %d", n, err, matches)
				}
			})
			const bound = 96
			t.Logf("%.0f allocations for %d matches against a %d-row block (bound %d)", allocs, matches, j.Ex.JoinBufferRows, bound)
			if allocs > bound {
				t.Fatalf("%.0f allocations for %d matches, want at most %d: rows must come from recycled slabs", allocs, matches, bound)
			}
		}
	})
}

// TestJoinRowsLiveUntilNextCall holds the joins to the Iterator contract
// their recycled slabs lean on: every row of a batch stays as it was
// handed out until the consumer calls NextBatch again. The consumer
// snapshots each batch and re-checks it just before the next call, and
// the snapshots together must be the pair loop's rows. Every outer row
// meets hundreds of inner rows, so one outer row's output spans several
// batches at every batch size; a residual rejects some pairs, so built
// rows give their cells back; and BNL's join buffer holds five rows, so
// blocks turn over.
func TestJoinRowsLiveUntilNextCall(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		oSch := NewSchema(Column{"ok", TInt}, Column{"os", TString})
		iSch := NewSchema(Column{"ik", TInt}, Column{"iv", TInt})
		var outer, inner []Row
		for i := range 12 {
			outer = append(outer, Row{Int(int64(i % 4)), Str(fmt.Sprintf("o%d", i))}) // key 3 has no partner
		}
		for i := range 1200 {
			inner = append(inner, Row{Int(int64(i % 3)), Int(int64(i))})
		}
		oTab, iTab := storeTable(t, h, d, "live_o", oSch, outer), storeTable(t, h, d, "live_i", iSch, inner)
		ix, err := d.BuildIndex(NewExec(h, d), iTab, "ik")
		if err != nil {
			t.Fatal(err)
		}
		sch := oSch.Concat(iSch)
		residual := Cmp{LT, C(sch, "iv"), Lit(Int(1000))}
		on := AndOf(Cmp{EQ, C(sch, "ok"), C(sch, "ik")}, residual)

		pairs := pairLoop(outer, inner, on, false)
		var semi, anti, blocks []Row
		for _, o := range outer {
			if len(pairLoop([]Row{o}, inner, on, false)) > 0 {
				semi = append(semi, o)
			} else {
				anti = append(anti, o)
			}
		}
		const buffer = 5
		for block := range slices.Chunk(outer, buffer) {
			blocks = append(blocks, pairLoop(block, inner, on, true)...)
		}

		for _, batch := range joinBatchSizes {
			ex := NewExec(h, d)
			ex.BatchSize, ex.JoinBufferRows = batch, buffer
			hash := func(semi, anti bool) Iterator {
				return &HashJoin{Ex: ex, Left: ex.NewConvScan(oTab, nil), Right: ex.NewConvScan(iTab, nil),
					LeftKey: C(oSch, "ok"), RightKey: C(iSch, "ik"), Residual: residual, Semi: semi, Anti: anti}
			}
			joins := []struct {
				name string
				it   Iterator
				want []Row
			}{
				{"hash", hash(false, false), pairs},
				{"semi", hash(true, false), semi},
				{"anti", hash(false, true), anti},
				{"BNL", &BNLJoin{Ex: ex, Outer: ex.NewConvScan(oTab, nil),
					Inner: func() Iterator { return ex.NewConvScan(iTab, nil) }, On: on}, blocks},
				{"INL", &INLJoin{Ex: ex, Outer: ex.NewConvScan(oTab, nil), Ix: ix, OuterKey: C(oSch, "ok"), Residual: residual}, pairs},
			}
			for _, j := range joins {
				what := fmt.Sprintf("%s batch=%d", j.name, batch)
				if err := j.it.Open(); err != nil {
					t.Fatal(err)
				}
				b := NewRowBatch(batch)
				var got, live []string
				var held []Row // batch k as handed out
				for {
					for i, r := range held {
						if now := renderRows([]Row{r})[0]; now != live[i] {
							t.Fatalf("%s: row %d of a batch changed before the next call: %s, handed out as %s", what, i, now, live[i])
						}
					}
					n, err := j.it.NextBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					held = held[:0]
					for i := range n {
						held = append(held, b.Row(i))
					}
					live = renderRows(held)
					got = append(got, live...)
				}
				if err := j.it.Close(); err != nil {
					t.Fatal(err)
				}
				if want := renderRows(j.want); !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, want %d\n got  %v\n want %v", what, len(got), len(want), got, want)
				}
			}
		}
	})
}
