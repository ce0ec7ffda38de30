package db

import (
	"fmt"
	"math/rand"
	"runtime"
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
		j := &HashJoin{Ex: ex, Left: ex.NewConvScan(f.oTab, nil), Right: ex.NewConvScan(f.iTab, nil),
			LeftKey: C(f.oTab.Sch, "ok"), RightKey: C(f.iTab.Sch, "ik"), Residual: residual, Semi: semi, Anti: anti}
		rows := collect(j)
		wantRows(t, "reopened hash "+what, collect(j), rows) // Close lets go of the build side
		return rows
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
// BenchmarkBNLJoin run: one full block of distinct keys, and nInner
// inner rows with exactly one partner each. The block's rows are
// two columns wide, or with lineitem set lineitem-shaped, keyed on
// l_partkey, with only l_suppkey read above the join: the join buffer
// keeps 2 of their 16 columns.
func bnlProbe(h *biscuit.Host, d *Database, block, nInner int, lineitem bool) *BNLJoin {
	oSch, key := NewSchema(Column{"ok", TInt}, Column{"ov", TString}), "ok"
	outer := make([]Row, block)
	for i := range outer {
		outer[i] = Row{Int(int64(i)), Str("outer")}
	}
	if lineitem {
		oSch, outer = lineitems(block)
		key = "l_partkey"
	}
	iSch := NewSchema(Column{"ik", TInt}, Column{"iv", TDecimal})
	inner := make([]Row, nInner)
	for i := range inner {
		inner[i] = Row{Int(int64(i * 7 % block)), Dec(int64(i))}
	}
	ex := NewExec(h, d)
	ex.JoinBufferRows = block
	sch := oSch.Concat(iSch)
	j := &BNLJoin{Ex: ex, Outer: NewMemScan(oSch, outer), Inner: func() Iterator { return NewMemScan(iSch, inner) },
		On: Cmp{EQ, C(sch, key), C(sch, "ik")}}
	if lineitem {
		narrow(j, readCols(len(sch.Cols), C(sch, "l_suppkey")))
	}
	return j
}

// TestBNLJoinRefusesAnEmptyBuffer: a join buffer of no rows fills no
// block. The join used to read its first, empty block as the end of the
// outer input, and returned no rows and no error; Open refuses it and
// names the value.
func TestBNLJoinRefusesAnEmptyBuffer(t *testing.T) {
	sch := NewSchema(Column{"k", TInt})
	rows := []Row{{Int(1)}, {Int(2)}}
	both := sch.Concat(sch)
	for _, buffer := range []int{0, -1} {
		j := &BNLJoin{Ex: &Exec{JoinBufferRows: buffer}, Outer: NewMemScan(sch, rows),
			Inner: func() Iterator { return NewMemScan(sch, rows) }, On: Cmp{EQ, C(both, "k"), C(both, "k_r")}}
		got, err := Collect(j)
		if want := fmt.Sprintf("join buffer of %d rows", buffer); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("JoinBufferRows=%d: %d rows, err %v, want an error naming %q", buffer, len(got), err, want)
		}
	}
}

// TestHeldRowsAddressing pins the joins' store to rowSlab's growth
// schedule, which chunkOf restates and nothing else checks: at widths 0,
// 1, 3 and 16 the row at every position — every chunk boundary among
// them, and past three full-size chunks — reads back as the row added
// there, and a row of no cells holds no chunk. Rewound and refilled with
// rows of the same shape, the store reuses its chunks and allocates
// nothing. A masked row reads back at full width, its unkept cells zero.
func TestHeldRowsAddressing(t *testing.T) {
	const n = 4*slabMaxRows + slabMaxRows/2
	for _, w := range []int{0, 1, 3, 16} {
		rows := make([]Row, n)
		for p := range rows {
			rows[p] = make(Row, w)
			for c := range rows[p] {
				rows[p][c] = Int(int64(p*w + c))
			}
		}
		var s heldRows
		s.reset(nil, w, nil)
		fill := func() {
			s.rewind()
			for _, r := range rows {
				s.add(r)
			}
		}
		fill()
		if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
			t.Fatalf("width %d: a rewound store refilled with %d rows allocated %.0f times, want 0", w, n, allocs)
		}
		for p, want := range rows {
			if got := s.row(int32(p)); !slices.Equal(got, want) {
				t.Fatalf("width %d: row %d reads %v, want %v", w, p, got, want)
			}
		}
		if w == 0 && len(s.slab.chunks) != 0 {
			t.Fatalf("rows of no cells took %d chunks, want none", len(s.slab.chunks))
		}
	}

	var s heldRows
	s.reset([]bool{false, true, false, false, true}, 5, nil)
	for p := range 40 {
		s.add(Row{Int(-1), Int(int64(p)), Str("dropped"), Int(-1), Dec(int64(p))})
	}
	for _, p := range []int{0, 39, 15, 16} {
		if got, want := s.row(int32(p)), (Row{{}, Int(int64(p)), {}, {}, Dec(int64(p))}); !slices.Equal(got, want) {
			t.Fatalf("masked row %d reads %v, want %v", p, got, want)
		}
	}
}

// TestBNLJoinBufferBytes: the join buffer keeps only the outer cells the
// plan reads, flat, as the build side does. A block of lineitem-shaped
// rows of which the join reads two columns costs two cells a held row,
// where a whole row cost sixteen cells and a Row header. What a held row
// costs is read as the difference between a full and a half-full block
// under one buffer size, each run probed by ten inner rows: the costs of
// a block as such — the key index, sized for the buffer, and the outer
// batch — cancel out, as both runs take them from the scratch a first,
// unmeasured, full block gave them back to. The bound is a quarter of
// the sixteen cells.
func TestBNLJoinBufferBytes(t *testing.T) {
	const buffer, inner = 4096, 10
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		bytes := func(rows int) int64 {
			j := bnlProbe(h, d, rows, inner, true)
			j.Ex.JoinBufferRows = buffer
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err := countRows(j)
			runtime.ReadMemStats(&after)
			if err != nil || n != inner {
				t.Fatalf("a %d-row block: %d rows, err %v, want %d", rows, n, err, inner)
			}
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		bytes(buffer)
		full, half := bytes(buffer), bytes(buffer/2)
		perRow := float64(full-half) / (buffer / 2)
		const bound = 16 * 32 / 4 // a quarter of sixteen 32-byte cells
		t.Logf("%.1f B a held row (bound %d); a full block allocated %.1f B a row in all", perRow, bound, float64(full)/buffer)
		if perRow >= bound {
			t.Fatalf("a block of 16-column rows allocated %.1f B a held row, want under %d: the join buffer keeps cells nobody reads", perRow, bound)
		}
	})
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
			j := bnlProbe(h, d, 512, matches, false)
			allocs := testing.AllocsPerRun(3, func() {
				if n, err := countRows(j); err != nil || n != matches {
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

// lineitems returns n lineitem-shaped rows, all sixteen columns, four
// lines an order and l_partkey unique.
func lineitems(n int) (*Schema, []Row) {
	cols := []Column{{"l_orderkey", TInt}, {"l_partkey", TInt}, {"l_suppkey", TInt}, {"l_linenumber", TInt},
		{"l_quantity", TDecimal}, {"l_extendedprice", TDecimal}, {"l_discount", TDecimal}, {"l_tax", TDecimal},
		{"l_returnflag", TString}, {"l_linestatus", TString}, {"l_shipdate", TDate}, {"l_commitdate", TDate},
		{"l_receiptdate", TDate}, {"l_shipinstruct", TString}, {"l_shipmode", TString}, {"l_comment", TString}}
	lines := make([]Row, n)
	for i := range lines {
		day := DateYMD(1992+i%7, 1+i%12, 1+i%28)
		lines[i] = Row{Int(int64(i / 4)), Int(int64(i)), Int(int64(i * 7 % 100)), Int(int64(1 + i%4)),
			Dec(int64(100 * (1 + i%50))), Dec(int64(i)), Dec(int64(i % 11)), Dec(int64(i % 9)),
			Str("N"), Str("O"), day, day, day, Str("DELIVER IN PERSON"), Str("TRUCK"), Str("carefully final deposits")}
	}
	return NewSchema(cols...), lines
}

// q21Semi builds Q21's EXISTS as a semi join: a build side of nBuild
// lineitem-shaped rows, all sixteen columns, four lines an order, and
// nProbe probe rows of (l_orderkey, l_suppkey), the last quarter of them
// keyed past the build side's orders. The join reads two build columns:
// l_orderkey, its key, and l_suppkey, its residual's. want is how many
// probe rows have a line of their order from another supplier.
func q21Semi(ex *Exec, nBuild, nProbe int) (j *HashJoin, want int) {
	lSch, lines := lineitems(nBuild)
	suppliers := map[int64]map[int64]bool{} // l_orderkey → its lines' l_suppkey
	for _, l := range lines {
		order, supp := l[0].I, l[2].I
		if suppliers[order] == nil {
			suppliers[order] = map[int64]bool{}
		}
		suppliers[order][supp] = true
	}
	pSch := NewSchema(Column{"p_orderkey", TInt}, Column{"p_suppkey", TInt})
	probes := make([]Row, nProbe)
	orders := int64(len(suppliers)) * 4 / 3
	for i := range probes {
		order, supp := int64(i)*orders/int64(nProbe), int64(i*7%100)
		probes[i] = Row{Int(order), Int(supp)}
		if s := suppliers[order]; len(s) > 1 || len(s) == 1 && !s[supp] {
			want++
		}
	}
	both := pSch.Concat(lSch)
	return &HashJoin{Ex: ex, Left: NewMemScan(pSch, probes), Right: NewMemScan(lSch, lines), Semi: true,
		LeftKey: C(pSch, "p_orderkey"), RightKey: C(lSch, "l_orderkey"),
		Residual: Cmp{NE, C(both, "l_suppkey"), C(both, "p_suppkey")}}, want
}

// TestHashJoinBuildBytes: the build side keeps only the cells the plan
// reads, flat. Q21's semi join reads two of lineitem's sixteen columns
// and keeps one of them — its key is indexed as the row arrives — so a
// build row costs one cell and its index entry, where a whole row cost
// sixteen cells, a Row header and a doubling slice of them. The bound is
// a quarter of the sixteen cells.
func TestHashJoinBuildBytes(t *testing.T) {
	const rows = 10_000
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		j, want := q21Semi(NewExec(h, d), rows, 3000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
		const bound = 16 * 32 / 4 // a quarter of sixteen 32-byte cells
		t.Logf("%.1f B a build row (bound %d)", perRow, bound)
		if perRow >= bound {
			t.Fatalf("building %d rows of 16 columns allocated %.1f B a row, want under %d: the build keeps cells nobody reads", rows, perRow, bound)
		}
		if n, err := countRows(j); err != nil || n != want || want == 0 {
			t.Fatalf("semi join: %d rows, err %v, want %d", n, err, want)
		}
	})
}

// TestJoinIndexRecycledAcrossKeyTypes: a HashJoin's index comes from its
// Database's scratch and goes back at Close, maps and all. On one
// Database, string-keyed and int-keyed joins in turn — each order, and a
// join of the first key type again over other keys — return what each
// returns on a fresh Database: a recycled index holds no key or chain of
// an earlier join, whatever type that join keyed on.
func TestJoinIndexRecycledAcrossKeyTypes(t *testing.T) {
	join := func(ex *Exec, typ Type, variant int) Iterator {
		key := func(k int) Value {
			if typ == TString {
				return Str(fmt.Sprint(k))
			}
			return Int(int64(k))
		}
		l := NewSchema(Column{"lk", typ})
		r := NewSchema(Column{"rk", typ}, Column{"rv", TInt})
		var left, right []Row
		for k := range 250 {
			left = append(left, Row{key(k)})
		}
		for i := range 40 {
			k := variant*100 + 3*i
			right = append(right, Row{key(k), Int(int64(variant*1000 + i))})
		}
		return &HashJoin{Ex: ex, Left: NewMemScan(l, left), Right: NewMemScan(r, right), LeftKey: C(l, "lk"), RightKey: C(r, "rk")}
	}
	type step struct {
		typ     Type
		variant int
	}
	run := func(d *Database, h *biscuit.Host, s step) []Row {
		rows, err := Collect(join(NewExec(h, d), s.typ, s.variant))
		if err != nil || len(rows) == 0 {
			t.Fatalf("%v-keyed join %d: %d rows, err %v", s.typ, s.variant, len(rows), err)
		}
		return rows
	}
	for _, steps := range [][]step{
		{{TString, 0}, {TInt, 1}, {TString, 1}},
		{{TInt, 0}, {TString, 1}, {TInt, 1}},
	} {
		sys := quickSys()
		shared := Open(sys)
		sys.Run(func(h *biscuit.Host) {
			for i, s := range steps {
				got := run(shared, h, s)
				want := run(Open(sys), h, s)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("step %d, %v-keyed join %d on a Database that ran %v: %v, want %v as on a fresh one", i, s.typ, s.variant, steps[:i], got, want)
				}
			}
		})
	}
}
