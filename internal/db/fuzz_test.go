package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// Fuzz targets double as corpus-driven unit tests under plain `go test`
// and as real fuzzers under `go test -fuzz`. The invariant in all of
// them: arbitrary bytes may produce errors but never panics, and valid
// encodings round-trip.

// FuzzDecodePage: DecodePage and ConvScan accept and reject the same
// pages; and the row decoder under any column mask (bit i of mask is
// column i) accepts and rejects exactly what the full decode does, with
// the same error and the same bytes consumed row by row, giving the full
// decode's cells where the mask has them and zero cells elsewhere.
func FuzzDecodePage(f *testing.F) {
	sch := fuzzPageSeeds(f)
	f.Fuzz(func(t *testing.T, page []byte, mask uint16) {
		// Must never panic; errors are fine.
		rows := 0
		derr := DecodePage(page, sch, func(Row) error { rows++; return nil })
		if len(page) < pageHeader {
			return
		}
		// ConvScan shares DecodePage's header check and row decoder, so
		// over the same bytes as a one-page chunk it accepts and rejects
		// the same pages, and finds the same rows.
		s := &ConvScan{T: &Table{Name: "fuzz", Sch: sch, PageSize: len(page)}, chunk: page, cLen: len(page)}
		b := NewRowBatch(PageRowCount(page))
		var cerr error
		for more := true; more && cerr == nil; {
			more, cerr = s.decodeRow(b)
		}
		if (derr == nil) != (cerr == nil) {
			t.Fatalf("DecodePage err = %v, ConvScan err = %v", derr, cerr)
		}
		if derr == nil && b.Len() != rows {
			t.Fatalf("DecodePage found %d rows, ConvScan %d", rows, b.Len())
		}

		need := make([]bool, len(sch.Cols))
		for i := range need {
			need[i] = mask>>i&1 == 1
		}
		full, fullLens, ferr := walkPage(page, sch, nil)
		got, gotLens, gerr := walkPage(page, sch, sch.decodeOps(need))
		if fmt.Sprint(ferr) != fmt.Sprint(gerr) {
			t.Fatalf("mask %04b: err %v, full decode's %v", mask, gerr, ferr)
		}
		if !slices.Equal(gotLens, fullLens) {
			t.Fatalf("mask %04b: rows consumed %v bytes, full decode %v", mask, gotLens, fullLens)
		}
		for r := range got {
			for i, v := range got[r] {
				want := Value{}
				if need[i] {
					want = full[r][i]
				}
				if v != want {
					t.Fatalf("mask %04b: row %d col %d = %#v, want %#v", mask, r, i, v, want)
				}
			}
		}
	})
}

// FuzzParseDate: any ten-byte cell — digits or not, any month, any
// day — parses to the digit loop's value, or fails with its error text.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{"1995-01-17", "0000-01-01", "9999-12-31", "2000-02-29",
		"1999-02-29", "1994-00-15", "1994-13-01", "1994-99-99", "1994-01-00", "0000-02-00",
		"19x5-01-17", "1995-0:-17", "1995/01/17", "////-//-//", "\xff\xff\xff\xff-\xff\xff-\xff\xff"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, cell []byte) {
		if len(cell) != 10 {
			return
		}
		got, gerr := parseDate(cell)
		want, werr := loopParseDate(cell)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseDate(%q) = %v, %v; digit loop %v, %v", cell, got, gerr, want, werr)
		}
	})
}

// fuzzPageSeeds seeds a (page, uint16) corpus over the schema it returns:
// a valid page, short and garbage pages, the shared header check's three
// rejections and row decode errors past it.
func fuzzPageSeeds(f *testing.F) *Schema {
	sch := NewSchema(Column{"a", TInt}, Column{"b", TString}, Column{"c", TDate}, Column{"d", TDecimal})
	// Seed with a valid page.
	pb := NewPageBuilder(4096, sch)
	for i := 0; i < 20; i++ {
		pb.Add(Row{Int(int64(i)), Str("abc"), DateYMD(1995, 1, 17), Dec(123)})
	}
	valid := pb.Take()
	for _, mask := range []uint16{0, 0b1111, 0b0101, 0b1010, 0b1000} {
		f.Add(valid, mask)
	}
	f.Add([]byte{}, uint16(0b0001))
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00}, uint16(0b0010))
	f.Add(bytes.Repeat([]byte{0xA5}, 4096), uint16(0b0100))
	// The shared header check's three rejections, and row decode errors
	// past it — in a masked cell as well as a read one.
	damaged := func(edit func(page []byte) []byte) []byte {
		return edit(append([]byte(nil), valid...))
	}
	used := int(binary.LittleEndian.Uint16(valid[2:4]))
	f.Add(damaged(func(p []byte) []byte { return p[:used-1] }), uint16(0))                                                  // used > len(page)
	f.Add(damaged(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[2:4], 2); return p }), uint16(0))                 // rows > 0, used < header
	f.Add(damaged(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[2:4], uint16(used-3)); return p }), uint16(0))    // last row truncated
	f.Add(damaged(func(p []byte) []byte { copy(p[4:], bytes.Repeat([]byte{0xFF}, 9)); p[13] = 0x01; return p }), uint16(0)) // row length 2^63
	rowLen := len(EncodeRow(nil, sch, Row{Int(0), Str("abc"), DateYMD(1995, 1, 17), Dec(123)}))
	for _, mask := range []uint16{0b0100, 0b1011, 0b0001} {
		f.Add(damaged(func(p []byte) []byte { p[pageHeader+rowLen+1+1+4+4] = 'x'; return p }), mask)                     // row 1's date lost a dash
		f.Add(damaged(func(p []byte) []byte { p[pageHeader+rowLen+1+1] = 0x7f; return p }), mask)                        // row 1's string overruns the row
		f.Add(damaged(func(p []byte) []byte { copy(p[pageHeader+1:], bytes.Repeat([]byte{0xFF}, 11)); return p }), mask) // row 0's varint overflows
	}
	return sch
}

// FuzzDeviceFilter is FuzzDecodePage's twin for the device scan: on any
// page, the device filter under the predicate sel picks accepts and
// rejects exactly what DecodePage does, with the same error, and keeps
// the rows DecodePage and the predicate keep. Rows are compared as
// decoded values, not bytes: a garbage row need not be canonical. A
// second page through the same filter leaves the first page's kept bytes
// as they were: each hit owns its bytes.
func FuzzDeviceFilter(f *testing.F) {
	sch := fuzzPageSeeds(f)
	preds := []Expr{
		nil,
		Cmp{LT, C(sch, "a"), Lit(Int(10))},
		EqS(sch, "b", "abc"),
		Like{X: C(sch, "b"), Pattern: "%b_"},
		Cmp{GE, C(sch, "c"), Lit(MustDate("1995-01-17"))},
		Cmp{GT, C(sch, "d"), Lit(Dec(100))},
		AndOf(Cmp{GE, C(sch, "a"), Lit(Int(5))}, Cmp{LT, C(sch, "c"), Lit(MustDate("1996-01-01"))}),
		OrOf(EqS(sch, "b", "x"), Cmp{EQ, C(sch, "d"), Lit(Dec(123))}),
		Not{Cmp{EQ, C(sch, "a"), Lit(Int(3))}},
	}
	f.Fuzz(func(t *testing.T, page []byte, sel uint16) {
		pred := preds[int(sel)%len(preds)]
		n := 0
		var want []Row
		derr := DecodePage(page, sch, func(r Row) error {
			if n++; pred == nil || Truthy(pred.Eval(r)) {
				want = append(want, r)
			}
			return nil
		})
		flt := newPageFilter(NDPScanArgs{Sch: sch, Pred: pred})
		h := flt.page(0, page)
		if fmt.Sprint(h.err) != fmt.Sprint(derr) {
			t.Fatalf("%v: device filter err %v, DecodePage's %v", pred, h.err, derr)
		}
		if derr != nil {
			if len(h.kept) != 0 {
				t.Fatalf("%v: a page that fails keeps %d bytes", pred, len(h.kept))
			}
			return
		}
		if h.rows != n {
			t.Fatalf("%v: device filter saw %d rows, DecodePage %d", pred, h.rows, n)
		}
		kept := h.kept
		first := bytes.Clone(kept)
		// The same survivors in reverse order put other bytes where the
		// first page's were.
		pb := NewPageBuilder(1<<16-1, sch)
		for i := len(want) - 1; i >= 0 && pb.Add(want[i]); i-- {
		}
		flt.page(0, pb.Take())
		if !bytes.Equal(kept, first) {
			t.Fatalf("%v: filtering more pages changed the first page's kept bytes", pred)
		}
		got := NewRowBatch(len(want) + 1)
		for at := 0; at < len(kept); {
			k, err := got.decodeRow(kept[at:], "", sch, nil)
			if err != nil {
				t.Fatalf("%v: kept row %d does not decode: %v", pred, got.Len(), err)
			}
			at += k
		}
		got.FinishStrings()
		if got.Len() != len(want) {
			t.Fatalf("%v: kept %d rows, want %d", pred, got.Len(), len(want))
		}
		for i, w := range want {
			if r := got.Row(i); !slices.Equal(r, w) {
				t.Fatalf("%v: kept row %d = %v, want %v", pred, i, r, w)
			}
		}
	})
}

// walkPage decodes a page's rows through the row decoder with ops,
// reporting the rows, the bytes each consumed, and the first error, which
// ends the walk.
func walkPage(page []byte, sch *Schema, ops []cellOp) ([]Row, []int, error) {
	n, used, err := pageExtent(page)
	if err != nil {
		return nil, nil, err
	}
	b := NewRowBatch(n + 1)
	var lens []int
	for at := pageHeader; len(lens) < n; {
		k, err := b.decodeRow(page[at:used], "", sch, ops)
		if err != nil {
			return nil, lens, fmt.Errorf("row %d: %w", len(lens), err)
		}
		lens = append(lens, k)
		at += k
	}
	b.FinishStrings()
	rows := make([]Row, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows, lens, nil
}

// FuzzRowCodecRoundTrip: a row EncodeRow wrote decodes to itself,
// consuming every byte, and encodes again to the same bytes — the
// canonical encoding the device relies on when it ships stored rows
// verbatim.
func FuzzRowCodecRoundTrip(f *testing.F) {
	sch := NewSchema(Column{"s", TString}, Column{"n", TInt})
	f.Add("hello", int64(42))
	f.Add("", int64(-1))
	f.Add("\x00\xff", int64(1<<62))
	f.Fuzz(func(t *testing.T, s string, n int64) {
		r := Row{Str(s), Int(n)}
		buf := EncodeRow(nil, sch, r)
		got, used, err := decodeOne(buf, sch)
		if err != nil {
			t.Fatalf("valid encoding failed to decode: %v", err)
		}
		if used != len(buf) {
			t.Fatalf("consumed %d of %d", used, len(buf))
		}
		if got[0].S != s || got[1].I != n {
			t.Fatalf("round trip mismatch: %v", got)
		}
		if again := EncodeRow(nil, sch, got); !bytes.Equal(again, buf) {
			t.Fatalf("re-encoding %v gave %x, want the stored %x", got, again, buf)
		}
	})
}
