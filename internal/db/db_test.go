package db

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"biscuit"
)

func testSchema() *Schema {
	return NewSchema(
		Column{"id", TInt},
		Column{"price", TDecimal},
		Column{"ship", TDate},
		Column{"note", TString},
	)
}

func sampleRow(i int) Row {
	return Row{Int(int64(i)), Dec(int64(i) * 101), DateYMD(1995, 1+i%12, 1+i%28), Str("note-" + string(rune('a'+i%26)))}
}

// decodeOne decodes a single encoded row through the one row decoder,
// RowBatch.decodeRow.
func decodeOne(buf []byte, sch *Schema) (Row, int, error) {
	b := NewRowBatch(1)
	n, err := b.decodeRow(buf, "", sch, nil)
	if err != nil {
		return nil, 0, err
	}
	b.FinishStrings()
	return b.Row(0), n, nil
}

func TestRowCodecRoundTrip(t *testing.T) {
	sch := testSchema()
	for i := 0; i < 100; i++ {
		r := sampleRow(i)
		buf := EncodeRow(nil, sch, r)
		got, n, err := decodeOne(buf, sch)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		for c := range r {
			if !Equal(got[c], r[c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[c], r[c])
			}
		}
	}
}

func TestRowCodecProperty(t *testing.T) {
	sch := NewSchema(Column{"a", TInt}, Column{"b", TString}, Column{"c", TDecimal})
	prop := func(a int64, b string, c int64) bool {
		r := Row{Int(a), Str(b), Dec(c)}
		if len(b) > 10000 {
			return true
		}
		buf := EncodeRow(nil, sch, r)
		got, _, err := decodeOne(buf, sch)
		return err == nil && Equal(got[0], r[0]) && Equal(got[1], r[1]) && Equal(got[2], r[2])
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageBuilderRoundTrip(t *testing.T) {
	sch := testSchema()
	pb := NewPageBuilder(4096, sch)
	var want []Row
	i := 0
	for {
		r := sampleRow(i)
		if !pb.Add(r) {
			break
		}
		want = append(want, r)
		i++
	}
	page := pb.Take()
	if len(page) != 4096 {
		t.Fatalf("page len %d", len(page))
	}
	if PageRowCount(page) != len(want) {
		t.Fatalf("header rows %d, want %d", PageRowCount(page), len(want))
	}
	var got []Row
	if err := DecodePage(page, sch, func(r Row) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !Equal(got[i][c], want[i][c]) {
				t.Fatalf("row %d col %d mismatch", i, c)
			}
		}
	}
	// The builder reuses its buffer: a one-row page taken after the full
	// one carries none of the full page's bytes past its own.
	pb.Add(want[0])
	page = pb.Take()
	used := int(binary.LittleEndian.Uint16(page[2:4]))
	if PageRowCount(page) != 1 || !bytes.Equal(page[used:], make([]byte, len(page)-used)) {
		t.Fatalf("second page: %d rows, tail past byte %d not all zero", PageRowCount(page), used)
	}
}

func TestDateEncodedAsASCII(t *testing.T) {
	sch := NewSchema(Column{"d", TDate})
	buf := EncodeRow(nil, sch, Row{MustDate("1995-01-17")})
	if string(buf[len(buf)-10:]) != "1995-01-17" {
		t.Fatalf("date not ASCII in page: %q", buf)
	}
}

func TestExprEval(t *testing.T) {
	sch := testSchema()
	r := Row{Int(7), Dec(1234), MustDate("1995-01-17"), Str("BUILDING")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp{EQ, C(sch, "id"), Lit(Int(7))}, true},
		{Cmp{NE, C(sch, "id"), Lit(Int(7))}, false},
		{Cmp{LT, C(sch, "price"), Lit(Dec(2000))}, true},
		{EqD(sch, "ship", "1995-01-17"), true},
		{EqD(sch, "ship", "1995-01-18"), false},
		{RangeD(sch, "ship", "1995-01-01", "1996-01-01"), true},
		{RangeD(sch, "ship", "1996-01-01", "1997-01-01"), false},
		{EqS(sch, "note", "BUILDING"), true},
		{Like{X: C(sch, "note"), Pattern: "BUILD%"}, true},
		{Like{X: C(sch, "note"), Pattern: "%ING"}, true},
		{Like{X: C(sch, "note"), Pattern: "%UILD%"}, true},
		{Like{X: C(sch, "note"), Pattern: "%XYZ%"}, false},
		{Like{X: C(sch, "note"), Pattern: "%UILD%", Negate: true}, false},
		{Like{X: C(sch, "note"), Pattern: "B_ILD%"}, true},
		{Like{X: C(sch, "note"), Pattern: "%U_D%"}, false},
		{Like{X: C(sch, "note"), Pattern: "%I_D_N_"}, true},
		{In{X: C(sch, "note"), Vals: []Value{Str("A"), Str("BUILDING")}}, true},
		{Between{X: C(sch, "price"), Lo: Dec(1000), Hi: Dec(1300)}, true},
		{AndOf(Cmp{EQ, C(sch, "id"), Lit(Int(7))}, EqS(sch, "note", "BUILDING")), true},
		{OrOf(Cmp{EQ, C(sch, "id"), Lit(Int(8))}, EqS(sch, "note", "BUILDING")), true},
		{Not{EqS(sch, "note", "BUILDING")}, false},
	}
	for i, c := range cases {
		if got := Truthy(c.e.Eval(r)); got != c.want {
			t.Errorf("case %d %s: got %v want %v", i, c.e, got, c.want)
		}
	}
}

// TestLikeWildcards: _ matches any one byte and % any run of bytes,
// alone and together, at either end and in the middle of a pattern.
func TestLikeWildcards(t *testing.T) {
	for _, c := range []struct {
		s, pattern string
		want       bool
	}{
		{"abc", "a_c", true},
		{"abcde", "%b_d%", true},
		{"ac", "a_c", false},
		{"abbc", "a_c", false},
		{"abc", "___", true},
		{"abc", "__", false},
		{"abc", "_%", true},
		{"", "_%", false},
		{"", "%", true},
		{"a_c", "a_c", true},
		{"abXcd", "%ab_cd%", true},
		{"abcd", "%ab_cd%", false},
		{"xxabYcdyy", "xx%b_c%y", true},
		{"aXbaYb", "%a_b", true},
		{"ab", "a%b_", false},
		{"abc", "a%_c", true},
		{"ac", "a%_c", false},
	} {
		if got := likeMatch(c.s, c.pattern); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
	// Every pattern over {a, b, _, %} up to five bytes against every
	// string over {a, b} up to five bytes, checked against the recursive
	// definition.
	var naive func(s, p string) bool
	naive = func(s, p string) bool {
		switch {
		case p == "":
			return s == ""
		case p[0] == '%':
			return naive(s, p[1:]) || s != "" && naive(s[1:], p)
		case s == "":
			return false
		}
		return (p[0] == '_' || p[0] == s[0]) && naive(s[1:], p[1:])
	}
	words := func(alphabet string, n int) []string {
		out := []string{""}
		for prev := out; n > 0; n-- {
			var next []string
			for _, w := range prev {
				for i := range alphabet {
					next = append(next, w+alphabet[i:i+1])
				}
			}
			out, prev = append(out, next...), next
		}
		return out
	}
	strs := words("ab", 5)
	for _, p := range words("ab_%", 5) {
		for _, s := range strs {
			if got, want := likeMatch(s, p), naive(s, p); got != want {
				t.Fatalf("%q LIKE %q = %v, want %v", s, p, got, want)
			}
		}
	}
}

func TestArith(t *testing.T) {
	sch := NewSchema(Column{"p", TDecimal}, Column{"d", TDecimal})
	r := Row{Dec(10000), Dec(10)} // 100.00, 0.10
	// p * (1 - d) = 90.00
	e := Arith{Mul, C(sch, "p"), Arith{Sub, Lit(Dec(100)), C(sch, "d")}}
	got := e.Eval(r)
	if got.T != TDecimal || got.I != 9000 {
		t.Fatalf("got %v", got)
	}
}

// TestArithIntegersAreExact: two integer operands never pass through
// float64, whose 53-bit mantissa would round 2^53+1 and the square of
// 3037000499; division truncates toward zero.
func TestArithIntegersAreExact(t *testing.T) {
	for _, c := range []struct {
		op   ArithOp
		l, r int64
		want int64
	}{
		{Add, 9007199254740993, 0, 9007199254740993},
		{Sub, 9007199254740993, -2, 9007199254740995},
		{Mul, 3037000499, 3037000499, 9223372030926249001},
		{Div, 9007199254740993, 1, 9007199254740993},
		{Div, 7, -2, -3},
		{Div, -7, 2, -3},
	} {
		e := Arith{c.op, Lit(Int(c.l)), Lit(Int(c.r))}
		if got := e.Eval(nil); got != Int(c.want) {
			t.Errorf("%v = %v, want %d", e, got, c.want)
		}
	}
}

// TestArithZeroDivisor: a zero divisor gives the zero of the result
// type, whatever the dividend, never the int64 of an infinite or NaN
// quotient.
func TestArithZeroDivisor(t *testing.T) {
	for _, c := range []struct{ l, r, want Value }{
		{Int(7), Int(0), Int(0)},
		{Int(0), Int(0), Int(0)},
		{Int(-7), Int(0), Int(0)},
		{Int(7), Dec(0), Dec(0)},
		{Dec(700), Int(0), Dec(0)},
		{Dec(700), Dec(0), Dec(0)},
		{Dec(-700), Dec(0), Dec(0)},
		{Dec(0), Dec(0), Dec(0)},
	} {
		e := Arith{Div, Lit(c.l), Lit(c.r)}
		if got := e.Eval(nil); got != c.want {
			t.Errorf("%v = %v (%v), want %v (%v)", e, got, got.T, c.want, c.want.T)
		}
	}
}

// ---- storage + execution integration ----

func quickSys() *biscuit.System {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 128
	cfg.NAND.PagesPerBlock = 32
	return biscuit.NewSystem(cfg)
}

// loadFixture loads n rows of the test schema; every hitEvery-th row is
// dated 1995-01-17 with note "TARGETKEY".
func loadFixture(t testing.TB, h *biscuit.Host, d *Database, n, hitEvery int) *Table {
	t.Helper()
	sch := testSchema()
	ld, err := d.NewLoader(h, "fixture", sch, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		r := Row{Int(int64(i)), Dec(int64(rng.Intn(100000))), DateYMD(1990+rng.Intn(9), 1+rng.Intn(12), 1+rng.Intn(28)), Str("padding-text-xyz")}
		if i%hitEvery == 7 {
			r[2] = MustDate("1995-01-17")
			r[3] = Str("TARGETKEY")
		}
		if err := ld.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	return d.Table("fixture")
}

func TestConvScanReturnsAllRows(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 5000, 50)
		ex := NewExec(h, d)
		rows, err := Collect(ex.NewConvScan(tab, nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5000 {
			t.Fatalf("got %d rows", len(rows))
		}
		// Sanity: ids are 0..4999 in order.
		for i, r := range rows {
			if r[0].I != int64(i) {
				t.Fatalf("row %d has id %d", i, r[0].I)
			}
		}
	})
}

func TestConvAndNDPScanAgree(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 5000, 50)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		ex := NewExec(h, d)
		conv, err := Collect(ex.NewConvScan(tab, pred))
		if err != nil {
			t.Fatal(err)
		}
		ex2 := NewExec(h, d)
		ndp, err := Collect(ex2.NewNDPScan(tab, []string{"TARGETKEY"}, pred))
		if err != nil {
			t.Fatal(err)
		}
		if len(conv) == 0 || len(conv) != len(ndp) {
			t.Fatalf("conv=%d ndp=%d", len(conv), len(ndp))
		}
		for i := range conv {
			for c := range conv[i] {
				if !Equal(conv[i][c], ndp[i][c]) {
					t.Fatalf("row %d differs", i)
				}
			}
		}
		if ex2.St.PagesOverLink >= ex.St.PagesOverLink {
			t.Fatalf("NDP moved %d pages over link, conv %d — no reduction", ex2.St.PagesOverLink, ex.St.PagesOverLink)
		}
		t.Logf("link pages: conv=%d ndp=%d (reduction %.1fx)", ex.St.PagesOverLink, ex2.St.PagesOverLink,
			float64(ex.St.PagesOverLink)/float64(ex2.St.PagesOverLink))
	})
}

func TestNDPScanFasterOnSelectivePredicate(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		// Page-sparse hits: a handful of matched pages in a ~200-page
		// table, the regime the paper's planner offloads.
		tab := loadFixture(t, h, d, 100000, 20000)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		ex := NewExec(h, d)
		start := h.Now()
		if _, err := Collect(ex.NewConvScan(tab, pred)); err != nil {
			t.Fatal(err)
		}
		ex.FlushCost()
		convT := h.Now() - start
		start = h.Now()
		ex2 := NewExec(h, d)
		if _, err := Collect(ex2.NewNDPScan(tab, []string{"TARGETKEY"}, pred)); err != nil {
			t.Fatal(err)
		}
		ex2.FlushCost()
		ndpT := h.Now() - start
		if ndpT >= convT {
			t.Fatalf("NDP scan %v not faster than conv %v", ndpT, convT)
		}
		t.Logf("conv=%v ndp=%v speedup=%.2fx", convT, ndpT, float64(convT)/float64(ndpT))
	})
}

func TestBNLJoinMatchesHashJoin(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		// Build two small tables with a key relationship.
		schA := NewSchema(Column{"ak", TInt}, Column{"av", TString})
		schB := NewSchema(Column{"bk", TInt}, Column{"bv", TDecimal})
		la, _ := d.NewLoader(h, "ta", schA, 8)
		for i := 0; i < 300; i++ {
			la.Add(Row{Int(int64(i % 50)), Str("a")})
		}
		la.Close()
		lb, _ := d.NewLoader(h, "tb", schB, 8)
		for i := 0; i < 120; i++ {
			lb.Add(Row{Int(int64(i % 40)), Dec(int64(i))})
		}
		lb.Close()
		ta, tb := d.Table("ta"), d.Table("tb")
		joined := ta.Sch.Concat(tb.Sch)
		on := Cmp{EQ, C(joined, "ak"), C(joined, "bk")}
		var first []string
		for _, batch := range joinBatchSizes {
			ex := NewExec(h, d)
			ex.JoinBufferRows = 64
			ex.BatchSize = batch
			bnl := &BNLJoin{Ex: ex, Outer: ex.NewConvScan(ta, nil), Inner: func() Iterator { return ex.NewConvScan(tb, nil) }, On: on}
			bnlRows, err := Collect(bnl)
			if err != nil {
				t.Fatal(err)
			}
			hj := &HashJoin{Ex: ex, Left: ex.NewConvScan(ta, nil), Right: ex.NewConvScan(tb, nil),
				LeftKey: C(ta.Sch, "ak"), RightKey: C(tb.Sch, "bk")}
			hjRows, err := Collect(hj)
			if err != nil {
				t.Fatal(err)
			}
			if len(bnlRows) == 0 || len(bnlRows) != len(hjRows) {
				t.Fatalf("batch=%d: bnl=%d hash=%d", batch, len(bnlRows), len(hjRows))
			}
			// The two emit in different orders (BNL inner-major within a
			// block, hash in probe order): compare as multisets, and
			// against the first batch size's answer.
			got, want := sortedRows(bnlRows), sortedRows(hjRows)
			if first == nil {
				first = want
			}
			if !slices.Equal(got, want) || !slices.Equal(want, first) {
				t.Fatalf("batch=%d: BNL and hash join rows differ (or differ from batch=%d)", batch, joinBatchSizes[0])
			}
		}
	})
}

// joinBatchSizes is the Exec.BatchSize dimension of the join tests: one
// row per batch, a size that divides nothing, and the default slab.
var joinBatchSizes = []int{1, 7, 1024}

// sortedRows renders rows and sorts them, for order-free comparison.
func sortedRows(rows []Row) []string {
	out := renderRows(rows)
	slices.Sort(out)
	return out
}

func TestBNLJoinRescanCountScalesWithOuterBlocks(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		schA := NewSchema(Column{"ak", TInt})
		schB := NewSchema(Column{"bk", TInt})
		la, _ := d.NewLoader(h, "ta", schA, 8)
		for i := 0; i < 1000; i++ {
			la.Add(Row{Int(int64(i))})
		}
		la.Close()
		lb, _ := d.NewLoader(h, "tb", schB, 8)
		for i := 0; i < 10; i++ {
			lb.Add(Row{Int(int64(i))})
		}
		lb.Close()
		ex := NewExec(h, d)
		ex.JoinBufferRows = 100 // 1000 outer rows -> 10 inner scans
		joined := d.Table("ta").Sch.Concat(d.Table("tb").Sch)
		bnl := &BNLJoin{Ex: ex, Outer: ex.NewConvScan(d.Table("ta"), nil),
			Inner: func() Iterator { return ex.NewConvScan(d.Table("tb"), nil) },
			On:    Cmp{EQ, C(joined, "ak"), C(joined, "bk")}}
		if _, err := Collect(bnl); err != nil {
			t.Fatal(err)
		}
		// 1 outer scan + 10 inner scans.
		if ex.St.ConvScans != 11 {
			t.Fatalf("scans=%d, want 11", ex.St.ConvScans)
		}
	})
}

// TestBNLRescansReuseTheReadAheadChunk: every block of a block-nested-
// loop join opens a new ConvScan of the inner table, and each one reads
// through a read-ahead chunk as large as the table. A closed scan hands
// its chunk back to the Exec, so the ten rescans that 20 blocks add to
// 10 allocate well under half a chunk each.
func TestBNLRescansReuseTheReadAheadChunk(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		outer := loadFixture(t, h, d, 800, 50)
		sch := NewSchema(Column{"bk", TInt}, Column{"v", TDecimal})
		lb, _ := d.NewLoader(h, "tb", sch, 8)
		for i := 0; i < 20000; i++ {
			lb.Add(Row{Int(int64(i)), Dec(int64(i) << 20)})
		}
		lb.Close()
		inner := d.Table("tb")
		joined := outer.Sch.Concat(sch)
		join := func(blockRows int) func() {
			return func() {
				ex := NewExec(h, d)
				ex.JoinBufferRows = blockRows
				bnl := &BNLJoin{Ex: ex, Outer: ex.NewConvScan(outer, nil),
					Inner: func() Iterator { return ex.NewConvScan(inner, nil) },
					On:    Cmp{EQ, C(joined, "id"), C(joined, "bk")}}
				if rows, err := Collect(bnl); err != nil || len(rows) != 800 {
					t.Fatalf("%d rows, err %v, want 800", len(rows), err)
				}
			}
		}
		_, ten := allocsAndBytesPerRun(3, join(80))
		_, twenty := allocsAndBytesPerRun(3, join(40))
		perRescan, chunk := (twenty-ten)/10, float64(inner.Bytes())
		t.Logf("10 blocks %.0f B, 20 blocks %.0f B: %.0f B per inner rescan; one read-ahead chunk is %.0f B", ten, twenty, perRescan, chunk)
		if perRescan > chunk/2 {
			t.Fatalf("an inner rescan allocates %.0f B, want at most half a %.0f B chunk", perRescan, chunk)
		}
	})
}

func TestSemiAndAntiJoin(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		schA := NewSchema(Column{"k", TInt})
		schB := NewSchema(Column{"k2", TInt}, Column{"tag", TInt})
		la, _ := d.NewLoader(h, "ta", schA, 8)
		for i := 0; i < 10; i++ {
			la.Add(Row{Int(int64(i))})
		}
		la.Close()
		// Key 2 matches twice — tag 0 first, then tag 1 — key 4 once with
		// tag 0, key 6 once with tag 1.
		lb, _ := d.NewLoader(h, "tb", schB, 8)
		for _, kt := range [][2]int64{{2, 0}, {2, 1}, {4, 0}, {6, 1}} {
			lb.Add(Row{Int(kt[0]), Int(kt[1])})
		}
		lb.Close()
		// The residual rejects key 2's first match and accepts its second,
		// rejects key 4's only match and accepts key 6's: the case where
		// "stop at the first match" and "stop at the first accepted match"
		// part ways, for semi and anti alike.
		tagged := Cmp{EQ, C(schA.Concat(schB), "tag"), Lit(Int(1))}
		cases := []struct {
			name       string
			semi, anti bool
			residual   Expr
			want       []int64 // left keys, in left order
		}{
			{"semi", true, false, nil, []int64{2, 4, 6}},
			{"anti", false, true, nil, []int64{0, 1, 3, 5, 7, 8, 9}},
			{"semi+residual", true, false, tagged, []int64{2, 6}},
			{"anti+residual", false, true, tagged, []int64{0, 1, 3, 4, 5, 7, 8, 9}},
			{"inner+residual", false, false, tagged, []int64{2, 6}},
		}
		for _, batch := range joinBatchSizes {
			ex := NewExec(h, d)
			ex.BatchSize = batch
			for _, tc := range cases {
				j := &HashJoin{Ex: ex, Left: ex.NewConvScan(d.Table("ta"), nil), Right: ex.NewConvScan(d.Table("tb"), nil),
					LeftKey: C(schA, "k"), RightKey: C(schB, "k2"), Semi: tc.semi, Anti: tc.anti, Residual: tc.residual}
				rows, err := Collect(j)
				if err != nil {
					t.Fatal(err)
				}
				width := 1 // semi and anti emit the left row alone
				if !tc.semi && !tc.anti {
					width = 3
				}
				var got []int64
				for _, r := range rows {
					if len(r) != width {
						t.Fatalf("batch=%d %s: row %v has %d cells, want %d", batch, tc.name, r, len(r), width)
					}
					got = append(got, r[0].I)
				}
				if !slices.Equal(got, tc.want) {
					t.Fatalf("batch=%d %s: left keys %v, want %v", batch, tc.name, got, tc.want)
				}
			}
		}
	})
}

func TestAggregation(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := NewSchema(Column{"grp", TString}, Column{"v", TDecimal})
		ld, _ := d.NewLoader(h, "t", sch, 8)
		for i := 0; i < 100; i++ {
			grp := "even"
			if i%2 == 1 {
				grp = "odd"
			}
			ld.Add(Row{Str(grp), Dec(int64(i) * 100)})
		}
		ld.Close()
		ex := NewExec(h, d)
		agg := &HashAggOp{Ex: ex, In: ex.NewConvScan(d.Table("t"), nil),
			GroupBy:  []Expr{C(sch, "grp")},
			GroupNms: []string{"grp"},
			Aggs: []Agg{
				{F: Sum, Arg: C(sch, "v"), Name: "total"},
				{F: CountAgg, Name: "n"},
				{F: Min, Arg: C(sch, "v"), Name: "lo"},
				{F: Max, Arg: C(sch, "v"), Name: "hi"},
				{F: Avg, Arg: C(sch, "v"), Name: "mean"},
			}}
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("groups=%d", len(rows))
		}
		// even: 0+2+...+98 = 2450 -> 245000 cents; count 50; min 0; max 9800.
		even := rows[0]
		if even[0].S != "even" || even[1].I != 245000 || even[2].I != 50 || even[3].I != 0 || even[4].I != 9800 {
			t.Fatalf("even=%v", even)
		}
	})
}

func TestSortAndLimit(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := NewSchema(Column{"v", TInt})
		ld, _ := d.NewLoader(h, "t", sch, 8)
		vals := []int64{5, 3, 9, 1, 7}
		for _, v := range vals {
			ld.Add(Row{Int(v)})
		}
		ld.Close()
		ex := NewExec(h, d)
		it := &LimitOp{In: &SortOp{Ex: ex, In: ex.NewConvScan(d.Table("t"), nil), Keys: []SortKey{{E: C(sch, "v"), Desc: true}}}, N: 3}
		rows, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{9, 7, 5}
		for i, w := range want {
			if rows[i][0].I != w {
				t.Fatalf("rows=%v", rows)
			}
		}
	})
}

func TestScalarAggOnEmptyInput(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := NewSchema(Column{"v", TInt})
		ld, _ := d.NewLoader(h, "t", sch, 8)
		ld.Close()
		_ = sch
		ex := NewExec(h, d)
		rows, err := Collect(ScalarAgg(ex, ex.NewConvScan(d.Table("t"), nil), Agg{F: CountAgg, Name: "n"}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].I != 0 {
			t.Fatalf("rows=%v", rows)
		}
	})
}
