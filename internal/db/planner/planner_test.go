package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"biscuit"
	"biscuit/internal/db"
)

func lineitemish() *db.Schema {
	return db.NewSchema(
		db.Column{Name: "l_orderkey", T: db.TInt},
		db.Column{Name: "l_linenumber", T: db.TInt},
		db.Column{Name: "l_shipdate", T: db.TDate},
		db.Column{Name: "l_shipmode", T: db.TString},
		db.Column{Name: "l_comment", T: db.TString},
	)
}

func TestExtractEqString(t *testing.T) {
	s := lineitemish()
	keys, ok := ExtractKeys(s, db.EqS(s, "l_shipmode", "MAIL"))
	if !ok || len(keys) != 1 || keys[0] != "MAIL" {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
}

func TestExtractEqDate(t *testing.T) {
	s := lineitemish()
	keys, ok := ExtractKeys(s, db.EqD(s, "l_shipdate", "1995-01-17"))
	if !ok || keys[0] != "1995-01-17" {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
}

func TestExtractFig8Query2(t *testing.T) {
	// (l_shipdate='1995-1-17' OR l_shipdate='1995-1-18') AND
	// (l_linenumber=1 OR l_linenumber=2)
	s := lineitemish()
	pred := db.AndOf(
		db.OrOf(db.EqD(s, "l_shipdate", "1995-01-17"), db.EqD(s, "l_shipdate", "1995-01-18")),
		db.OrOf(db.Cmp{Op: db.EQ, L: db.C(s, "l_linenumber"), R: db.Lit(db.Int(1))},
			db.Cmp{Op: db.EQ, L: db.C(s, "l_linenumber"), R: db.Lit(db.Int(2))}),
	)
	keys, ok := ExtractKeys(s, pred)
	if !ok || len(keys) != 2 {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
	if keys[0] != "1995-01-17" || keys[1] != "1995-01-18" {
		t.Fatalf("keys=%v", keys)
	}
}

func TestExtractDateRangeYearPrefix(t *testing.T) {
	s := lineitemish()
	keys, ok := ExtractKeys(s, db.RangeD(s, "l_shipdate", "1994-01-01", "1995-01-01"))
	if !ok || len(keys) != 1 || keys[0] != "1994-" {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
	// Two-year span -> two prefixes.
	keys, ok = ExtractKeys(s, db.RangeD(s, "l_shipdate", "1994-01-01", "1996-01-01"))
	if !ok || len(keys) != 2 {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
}

// An inclusive upper bound keeps its own month or year: a row dated on
// the bound lives in a page holding that month's or year's prefix.
func TestExtractDateRangeInclusiveUpperBound(t *testing.T) {
	s := lineitemish()
	between := func(lo, hi string) db.Expr {
		return db.AndOf(db.Cmp{Op: db.GE, L: db.C(s, "l_shipdate"), R: db.Lit(db.MustDate(lo))},
			db.Cmp{Op: db.LE, L: db.C(s, "l_shipdate"), R: db.Lit(db.MustDate(hi))})
	}
	for _, c := range []struct {
		pred db.Expr
		want string
	}{
		{between("1995-01-01", "1995-03-01"), "[1995-01 1995-02 1995-03]"},
		{between("1994-01-01", "1996-01-01"), "[1994- 1995- 1996-]"},
		{between("1995-01-01", "1995-02-28"), "[1995-01 1995-02]"},
		{db.RangeD(s, "l_shipdate", "1995-01-01", "1995-03-01"), "[1995-01 1995-02]"},
		{db.RangeD(s, "l_shipdate", "1994-01-01", "1996-01-01"), "[1994- 1995-]"},
	} {
		keys, ok := ExtractKeys(s, c.pred)
		if got := fmt.Sprint(keys); !ok || got != c.want {
			t.Errorf("%v: keys %s ok=%v, want %s", c.pred, got, ok, c.want)
		}
	}
}

func TestExtractLike(t *testing.T) {
	s := lineitemish()
	keys, ok := ExtractKeys(s, db.Like{X: db.C(s, "l_comment"), Pattern: "%special requests%"})
	if !ok || keys[0] != "special requests" {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
	// Over-long literal truncates to the hardware's 16 bytes.
	keys, ok = ExtractKeys(s, db.Like{X: db.C(s, "l_comment"), Pattern: "%averylongliteralsegment%"})
	if !ok || len(keys[0]) != 16 {
		t.Fatalf("keys=%v", keys)
	}
}

// TestExtractLikeKeysAreLiteral: _ matches any byte, so a LIKE key is a
// run between wildcards and never holds one; a row matching the pattern
// — here, the pattern with each _ made 'X' and each % dropped — holds the
// key.
func TestExtractLikeKeysAreLiteral(t *testing.T) {
	s := lineitemish()
	for _, c := range []struct{ pattern, want string }{
		{"%ab_cd%", "ab"},
		{"%ab_cde%", "cde"},
		{"a_bcd%", "bcd"},
		{"%special_requests%", "requests"},
		{"_", ""},
		{"%__%", ""},
	} {
		keys, ok := ExtractKeys(s, db.Like{X: db.C(s, "l_comment"), Pattern: c.pattern})
		if c.want == "" {
			if ok {
				t.Errorf("%q: keys %q, want none", c.pattern, keys)
			}
			continue
		}
		if !ok || len(keys) != 1 || keys[0] != c.want {
			t.Errorf("%q: keys %q ok=%v, want [%s]", c.pattern, keys, ok, c.want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for range 2000 {
		p := make([]byte, 1+rng.Intn(12))
		for i := range p {
			p[i] = "ab_%"[rng.Intn(4)]
		}
		pattern := string(p)
		keys, ok := ExtractKeys(s, db.Like{X: db.C(s, "l_comment"), Pattern: pattern})
		if !ok {
			continue
		}
		row := strings.NewReplacer("_", "X", "%", "").Replace(pattern)
		if strings.ContainsAny(keys[0], "_%") || !strings.Contains(row, keys[0]) {
			t.Fatalf("%q: key %q (a matching row: %q)", pattern, keys[0], row)
		}
	}
}

func TestExtractRejectsNotLike(t *testing.T) {
	s := lineitemish()
	if _, ok := ExtractKeys(s, db.Like{X: db.C(s, "l_comment"), Pattern: "%x%", Negate: true}); ok {
		t.Fatal("NOT LIKE must not be offloadable (hardware limitation, paper §V-C)")
	}
}

func TestExtractRejectsNumericOnly(t *testing.T) {
	s := lineitemish()
	if _, ok := ExtractKeys(s, db.Cmp{Op: db.EQ, L: db.C(s, "l_linenumber"), R: db.Lit(db.Int(1))}); ok {
		t.Fatal("numeric-only predicates have no literal keys")
	}
}

func TestExtractRejectsWideOr(t *testing.T) {
	s := lineitemish()
	pred := db.OrOf(
		db.EqS(s, "l_shipmode", "MAIL"),
		db.EqS(s, "l_shipmode", "SHIP"),
		db.EqS(s, "l_shipmode", "RAIL"),
		db.EqS(s, "l_shipmode", "AIR!"),
	)
	if _, ok := ExtractKeys(s, pred); ok {
		t.Fatal("4-way OR exceeds the 3-key hardware limit")
	}
}

func TestExtractInList(t *testing.T) {
	s := lineitemish()
	keys, ok := ExtractKeys(s, db.In{X: db.C(s, "l_shipmode"), Vals: []db.Value{db.Str("MAIL"), db.Str("SHIP")}})
	if !ok || len(keys) != 2 {
		t.Fatalf("keys=%v ok=%v", keys, ok)
	}
}

func TestExtractPrefersMoreSelectiveConjunct(t *testing.T) {
	s := lineitemish()
	pred := db.AndOf(
		db.EqS(s, "l_shipmode", "NO"), // short key
		db.EqD(s, "l_shipdate", "1995-01-17"),
	)
	keys, ok := ExtractKeys(s, pred)
	if !ok || keys[0] != "1995-01-17" {
		t.Fatalf("keys=%v, want the longer date key preferred", keys)
	}
}

// ---- end-to-end planner decisions ----

func planFixture(t *testing.T, hitEvery int) (*biscuit.System, *db.Database, func(h *biscuit.Host) *db.Table) {
	t.Helper()
	return rowsFixture(t, func(i int) db.Row {
		r := db.Row{db.Int(int64(i)), db.Int(int64(i%7 + 1)), db.DateYMD(1992+i%7, 1+i%12, 1+i%28),
			db.Str([]string{"RAIL", "AIR", "TRUCK"}[i%3]), db.Str("regular packages deliver quickly")}
		if hitEvery > 0 && i%hitEvery == 3 {
			r[2] = db.MustDate("1995-01-17")
			r[3] = db.Str("MAILX")
		}
		return r
	})
}

// rowsFixture is a system whose load func fills a 60 000-row lineitemish
// table with row(0), row(1), ...
func rowsFixture(t *testing.T, row func(i int) db.Row) (*biscuit.System, *db.Database, func(h *biscuit.Host) *db.Table) {
	t.Helper()
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 128
	cfg.NAND.PagesPerBlock = 32
	sys := biscuit.NewSystem(cfg)
	d := db.Open(sys)
	load := func(h *biscuit.Host) *db.Table {
		sch := lineitemish()
		ld, err := d.NewLoader(h, "lineitem", sch, 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60000; i++ {
			if err := ld.Add(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		return d.Table("lineitem")
	}
	return sys, d, load
}

func TestPlannerOffloadsSelectiveScan(t *testing.T) {
	sys, d, load := planFixture(t, 10000)
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		ex := db.NewExec(h, d)
		pl := Default()
		it, dec := pl.PlanScan(ex, tab, db.EqS(tab.Sch, "l_shipmode", "MAILX"))
		if !dec.Offloaded {
			t.Fatalf("expected offload, got %q (sel %.2f)", dec.Reason, dec.Selectivity)
		}
		rows, err := db.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("rows=%d, want 6", len(rows))
		}
	})
}

// Six rows dated on a range's inclusive upper bound, among 1992–93
// dates: the offloaded scan must return what the Conv scan does.
func TestPlannedInclusiveRangeEqualsConv(t *testing.T) {
	sys, d, load := rowsFixture(t, func(i int) db.Row {
		date := db.DateYMD(1992+i%2, 1+i%12, 1+i%28)
		if i%10000 == 3 {
			date = db.MustDate("1995-03-01")
		}
		return db.Row{db.Int(int64(i)), db.Int(int64(i%7 + 1)), date, db.Str("RAIL"), db.Str("regular packages deliver quickly")}
	})
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		ex := db.NewExec(h, d)
		pred := db.AndOf(db.Cmp{Op: db.GE, L: db.C(tab.Sch, "l_shipdate"), R: db.Lit(db.MustDate("1995-01-01"))},
			db.Cmp{Op: db.LE, L: db.C(tab.Sch, "l_shipdate"), R: db.Lit(db.MustDate("1995-03-01"))})
		it, dec := Default().PlanScan(ex, tab, pred)
		if !dec.Offloaded {
			t.Fatalf("expected offload, got %q (sel %.2f)", dec.Reason, dec.Selectivity)
		}
		planned, err := db.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := db.Collect(ex.NewConvScan(tab, pred))
		if err != nil {
			t.Fatal(err)
		}
		if len(conv) != 6 || fmt.Sprint(planned) != fmt.Sprint(conv) {
			t.Fatalf("keys %v: planned scan %d rows, Conv %d (want 6)", dec.Keys, len(planned), len(conv))
		}
	})
}

// TestPlannedLikeUnderscoreEqualsConv: an offloaded LIKE with a _ finds
// what Conv finds. Six of the rows hold "abXcd"; a key of "ab_cd" would
// let no page through.
func TestPlannedLikeUnderscoreEqualsConv(t *testing.T) {
	sys, d, load := rowsFixture(t, func(i int) db.Row {
		comment := "regular packages deliver quickly"
		if i%10000 == 3 {
			comment = "regular abXcd packages"
		}
		return db.Row{db.Int(int64(i)), db.Int(int64(i%7 + 1)), db.DateYMD(1992+i%7, 1+i%12, 1+i%28), db.Str("RAIL"), db.Str(comment)}
	})
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		ex := db.NewExec(h, d)
		pred := db.Like{X: db.C(tab.Sch, "l_comment"), Pattern: "%ab_cd%"}
		it, dec := Default().PlanScan(ex, tab, pred)
		if !dec.Offloaded {
			t.Fatalf("expected offload, got %q (sel %.2f)", dec.Reason, dec.Selectivity)
		}
		planned, err := db.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := db.Collect(ex.NewConvScan(tab, pred))
		if err != nil {
			t.Fatal(err)
		}
		if len(conv) != 6 || fmt.Sprint(planned) != fmt.Sprint(conv) {
			t.Fatalf("keys %v: planned scan %d rows, Conv %d (want 6)", dec.Keys, len(planned), len(conv))
		}
	})
}

func TestPlannerRefusesHighSelectivity(t *testing.T) {
	sys, d, load := planFixture(t, 5) // hits everywhere
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		ex := db.NewExec(h, d)
		pl := Default()
		it, dec := pl.PlanScan(ex, tab, db.EqS(tab.Sch, "l_shipmode", "MAILX"))
		if dec.Offloaded {
			t.Fatalf("must refuse offload at high page selectivity")
		}
		if !strings.Contains(dec.Reason, "selectivity") {
			t.Fatalf("reason=%q", dec.Reason)
		}
		if _, ok := it.(*db.ConvScan); !ok {
			t.Fatalf("want ConvScan fallback, got %T", it)
		}
	})
}

func TestPlannerRefusesSmallTable(t *testing.T) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 64
	cfg.NAND.PagesPerBlock = 32
	sys := biscuit.NewSystem(cfg)
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := lineitemish()
		ld, _ := d.NewLoader(h, "tiny", sch, 8)
		for i := 0; i < 100; i++ {
			ld.Add(db.Row{db.Int(int64(i)), db.Int(1), db.DateYMD(1995, 1, 17), db.Str("MAIL"), db.Str("c")})
		}
		ld.Close()
		ex := db.NewExec(h, d)
		_, dec := Default().PlanScan(ex, d.Table("tiny"), db.EqS(sch, "l_shipmode", "MAIL"))
		if dec.Offloaded || !strings.Contains(dec.Reason, "small") {
			t.Fatalf("dec=%+v", dec)
		}
	})
}

func TestPlannerRefusesShortKey(t *testing.T) {
	sys, d, load := planFixture(t, 10000)
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		ex := db.NewExec(h, d)
		_, dec := Default().PlanScan(ex, tab, db.EqS(tab.Sch, "l_shipmode", "R"))
		if dec.Offloaded || !strings.Contains(dec.Reason, "selectivity too low") {
			t.Fatalf("dec=%+v (single-character predicate must be refused)", dec)
		}
	})
}

func TestPlannerNoPredicate(t *testing.T) {
	sys, d, load := planFixture(t, 10000)
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		ex := db.NewExec(h, d)
		_, dec := Default().PlanScan(ex, tab, nil)
		if dec.Offloaded || dec.Reason != "no filter predicate" {
			t.Fatalf("dec=%+v", dec)
		}
	})
}

// TestDefaultSeedsLikeAnExplicitSource: Default leaves Rand nil, and the
// first probe seeds it with the calibrated 42, so a Default planner
// samples the pages a planner handed rand.NewSource(42) samples — probe
// after probe — and decides alike.
func TestDefaultSeedsLikeAnExplicitSource(t *testing.T) {
	sys, d, load := planFixture(t, 1500)
	sys.Run(func(h *biscuit.Host) {
		tab := load(h)
		def, seeded := Default(), &Planner{Threshold: 0.25, Rand: rand.New(rand.NewSource(42))}
		if def.Rand != nil {
			t.Fatal("Default seeds a source its caller may throw away")
		}
		preds := []db.Expr{
			db.EqS(tab.Sch, "l_shipmode", "MAILX"),
			db.EqD(tab.Sch, "l_shipdate", "1995-01-17"),
			db.EqS(tab.Sch, "l_shipmode", "TRUCK"),
		}
		partial := false // a probe whose answer depends on which pages it read
		for round := range 3 {
			for _, pred := range preds {
				exA, exB := db.NewExec(h, d), db.NewExec(h, d)
				_, a := def.PlanScan(exA, tab, pred)
				_, b := seeded.PlanScan(exB, tab, pred)
				if fmt.Sprint(a) != fmt.Sprint(b) || exA.St != exB.St {
					t.Fatalf("round %d: Default decided %+v reading %+v, seeded %+v reading %+v", round, a, exA.St, b, exB.St)
				}
				partial = partial || (a.Selectivity > 0 && a.Selectivity < 1)
			}
		}
		if !partial {
			t.Fatal("every probe hit all pages or none: which pages were read went untested")
		}
		if a, b := def.Rand.Int63(), seeded.Rand.Int63(); a != b {
			t.Fatalf("after the same probes the streams diverge: next draws %d and %d", a, b)
		}
	})
}
