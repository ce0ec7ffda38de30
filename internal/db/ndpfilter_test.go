package db

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestDeviceFilterForwardsStoredRows is the forwarding law: the bytes
// the device filter keeps from pages PageBuilder wrote are EncodeRow of
// the rows DecodePage and the predicate keep — so shipping rows as stored
// is shipping them re-encoded. Rows are seeded over the cells where
// encodings change width or shape: ints and decimals at the varint steps
// and the int64 ends, strings whose length prefix grows a byte, dates at
// both ends of the years a cell stores. Predicates read each type.
func TestDeviceFilterForwardsStoredRows(t *testing.T) {
	sch := NewSchema(Column{"i", TInt}, Column{"s", TString}, Column{"t", TDate}, Column{"d", TDecimal})
	ints := []int64{0, 1, -1, 63, -63, 64, -64, math.MinInt64, math.MaxInt64}
	strs := []string{"", strings.Repeat("x", 127), strings.Repeat("y", 128)}
	days := []int64{firstDay, lastDay, MustDate("1970-01-01").I, MustDate("1995-01-17").I}
	rng := rand.New(rand.NewSource(3))
	pb := NewPageBuilder(4096, sch)
	var pages [][]byte
	for i := 0; i < 600; i++ {
		day := days[rng.Intn(len(days))]
		if rng.Intn(2) == 0 {
			day = firstDay + rng.Int63n(lastDay-firstDay+1)
		}
		r := Row{Int(ints[rng.Intn(len(ints))]), Str(strs[rng.Intn(len(strs))]), {T: TDate, I: day}, Dec(ints[rng.Intn(len(ints))])}
		if !pb.Add(r) {
			pages = append(pages, bytes.Clone(pb.Take()))
			if !pb.Add(r) {
				t.Fatalf("row %d fits no page", i)
			}
		}
	}
	pages = append(pages, bytes.Clone(pb.Take()))

	for _, pred := range []Expr{
		nil,
		Cmp{GE, C(sch, "i"), Lit(Int(0))},
		Cmp{EQ, C(sch, "i"), Lit(Int(math.MinInt64))},
		Cmp{LT, C(sch, "d"), Lit(Dec(-63))},
		Cmp{EQ, C(sch, "d"), Lit(Dec(64))},
		EqS(sch, "s", ""),
		Like{X: C(sch, "s"), Pattern: "y%"},
		Cmp{LT, C(sch, "t"), Lit(MustDate("1970-01-01"))},
		Cmp{GE, C(sch, "t"), Lit(MustDate("5000-01-01"))},
		AndOf(Cmp{GT, C(sch, "i"), Lit(Int(-64))}, EqS(sch, "s", strs[1]), Cmp{LE, C(sch, "t"), Lit(Value{T: TDate, I: lastDay})}),
	} {
		f := newPageFilter(NDPScanArgs{Sch: sch, Pred: pred})
		kept, want := 0, 0
		for p, page := range pages {
			h := f.page(int64(p), page)
			if h.err != nil {
				t.Fatalf("%v: page %d: %v", pred, p, h.err)
			}
			var enc []byte
			if err := DecodePage(page, sch, func(r Row) error {
				if pred == nil || Truthy(pred.Eval(r)) {
					enc = EncodeRow(enc, sch, r)
					want++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if h.rows != PageRowCount(page) || !bytes.Equal(h.kept, enc) || len(h.kept) != cap(h.kept) {
				t.Fatalf("%v: page %d: %d rows, kept %d bytes (cap %d); want %d rows, exactly the %d bytes of EncodeRow", pred, p, h.rows, len(h.kept), cap(h.kept), PageRowCount(page), len(enc))
			}
			kept += len(h.kept)
		}
		t.Logf("%v: %d rows, %d bytes kept", pred, want, kept)
	}
}
