package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"biscuit"
)

// refEncodeRow is the reference row encoding, in two passes: the cells
// into a body of their own, then the body's length and the body.
func refEncodeRow(dst []byte, sch *Schema, r Row) []byte {
	var body []byte
	for i, c := range sch.Cols {
		v := r[i]
		switch c.T {
		case TInt, TDecimal:
			body = binary.AppendVarint(body, v.I)
		case TDate:
			body = appendDate(body, v.I)
		case TString:
			body = binary.AppendUvarint(body, uint64(len(v.S)))
			body = append(body, v.S...)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// TestEncodeRowSizesCells: EncodeRow's bytes are the two-pass
// encoding's, and their length is cellsLen plus its prefix, over the
// varint width steps of ints and decimals, the string lengths where the
// length varint (and the row's prefix) grows a byte, and dates out to
// both ends of the four-digit years a cell stores.
func TestEncodeRowSizesCells(t *testing.T) {
	sch := NewSchema(Column{"i", TInt}, Column{"d", TDecimal}, Column{"s", TString}, Column{"t", TDate})
	ints := []int64{0, 1, -1, 63, -63, 64, -64, math.MinInt64, math.MaxInt64}
	strs := []int{0, 127, 128, 16383, 16384}
	dates := []Value{
		DateYMD(1970, 1, 1), DateYMD(1992, 1, 1), DateYMD(1998, 8, 2), DateYMD(1, 1, 1),
		DateYMD(0, 1, 1), DateYMD(9999, 12, 31),
	}
	var buf []byte
	for i, n := range ints {
		for j, sl := range strs {
			for k, dt := range dates {
				r := Row{Int(n), Dec(ints[(i+j+k)%len(ints)]), Str(strings.Repeat("x", sl)), dt}
				got := EncodeRow(nil, sch, r)
				body, _ := cellsLen(sch, r)
				if want := uvarintLen(uint64(body)) + body; len(got) != want {
					t.Errorf("row %v/%d/%s: encoded %d bytes, cellsLen says %d", n, sl, dt.DateString(), len(got), want)
				}
				if want := refEncodeRow(nil, sch, r); !bytes.Equal(got, want) {
					t.Errorf("row %v/%d/%s: bytes differ from the two-pass encoding", n, sl, dt.DateString())
				}
				// Appending to a non-empty dst keeps what it held.
				buf = EncodeRow(append(buf[:0], 0xAB), sch, r)
				if buf[0] != 0xAB || !bytes.Equal(buf[1:], got) {
					t.Errorf("row %v/%d/%s: append to a non-empty dst", n, sl, dt.DateString())
				}
			}
		}
	}
}

// TestEncodeAllocatesNothing: EncodeRow into a buffer with room, and a
// PageBuilder's Add…Take cycle after its first page, allocate nothing.
func TestEncodeAllocatesNothing(t *testing.T) {
	sch := testSchema()
	r := sampleRow(3)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = EncodeRow(buf[:0], sch, r) }); n != 0 {
		t.Errorf("EncodeRow into a buffer with room: %v allocs, want 0", n)
	}
	pb := NewPageBuilder(4096, sch)
	cycle := func() {
		for pb.Add(r) {
		}
		if pb.Take() == nil {
			t.Fatal("Take returned no page")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("PageBuilder Add…Take after the first page: %v allocs, want 0", n)
	}
}

// TestOversizedRowIsAnError: a row larger than a page is reported, not
// panicked on — by PageBuilder.Add on an empty page and by Loader.Add,
// whose table keeps exactly the rows it accepted.
func TestOversizedRowIsAnError(t *testing.T) {
	sch := testSchema()
	big := Row{Int(1), Dec(1), DateYMD(1995, 1, 1), Str(strings.Repeat("y", 17<<10))}
	if NewPageBuilder(16<<10, sch).Add(big) {
		t.Fatal("PageBuilder.Add accepted a 17 KiB row into a 16 KiB page")
	}

	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		ld, err := d.NewLoader(h, "t", sch, 4)
		if err != nil {
			t.Fatal(err)
		}
		var want []Row
		add := func(r Row) {
			if err := ld.Add(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if err := ld.Add(big); err == nil || !strings.Contains(err.Error(), "does not fit a fresh page") {
			t.Fatalf("Loader.Add(17 KiB row) on an empty loader = %v", err)
		}
		add(sampleRow(0))
		add(sampleRow(1))
		if err := ld.Add(big); err == nil {
			t.Fatal("Loader.Add accepted a 17 KiB row after two rows")
		}
		add(sampleRow(2))
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		tab := d.Table("t")
		if tab.Rows != int64(len(want)) {
			t.Fatalf("table has %d rows, want %d", tab.Rows, len(want))
		}
		got, err := Collect(NewExec(h, d).NewConvScan(tab, nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !Equal(got[i][c], want[i][c]) {
					t.Fatalf("row %d col %d: %v, want %v", i, c, got[i][c], want[i][c])
				}
			}
		}
	})
}

// TestUnstorableDateIsRefused: a date cell is ten ASCII bytes, so a date
// outside years 0000–9999 has no cell. PageBuilder.Add refuses the row
// and leaves the page as it was, Loader.Add reports an error naming the
// column and keeps the table's rows as they were, and EncodeRow panics:
// a row that was written with an eleven-byte date made its whole page
// undecodable.
func TestUnstorableDateIsRefused(t *testing.T) {
	sch := NewSchema(Column{"d", TDate}, Column{"n", TInt})
	for _, bad := range []Value{DateYMD(10000, 1, 1), DateYMD(-1, 12, 31), DateYMD(283305, 2, 29)} {
		pb := NewPageBuilder(4096, sch)
		if !pb.Add(Row{DateYMD(0, 1, 1), Int(1)}) || !pb.Add(Row{DateYMD(9999, 12, 31), Int(2)}) {
			t.Fatal("PageBuilder.Add refused 0000-01-01 or 9999-12-31")
		}
		if pb.Add(Row{bad, Int(7)}) {
			t.Fatalf("PageBuilder.Add accepted %s", bad.DateString())
		}
		var got []Row
		if err := DecodePage(pb.Take(), sch, func(r Row) error { got = append(got, r); return nil }); err != nil {
			t.Fatalf("after refusing %s: %v", bad.DateString(), err)
		}
		if fmt.Sprint(got) != "[[0000-01-01 1] [9999-12-31 2]]" {
			t.Fatalf("after refusing %s: page holds %v", bad.DateString(), got)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeRow encoded %s", bad.DateString())
				}
			}()
			EncodeRow(nil, sch, Row{bad, Int(7)})
		}()
	}

	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		ld, err := d.NewLoader(h, "t", sch, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ld.Add(Row{DateYMD(1995, 1, 17), Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := ld.Add(Row{DateYMD(10000, 1, 1), Int(7)}); err == nil || !strings.Contains(err.Error(), "column d") {
			t.Fatalf("Loader.Add(year 10000) = %v, want an error naming column d", err)
		}
		if err := ld.Add(Row{DateYMD(1995, 1, 18), Int(2)}); err != nil {
			t.Fatal(err)
		}
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		tab := d.Table("t")
		rows, err := Collect(NewExec(h, d).NewConvScan(tab, nil))
		if err != nil {
			t.Fatal(err)
		}
		if tab.Rows != 2 || tab.Pages != 1 || fmt.Sprint(rows) != "[[1995-01-17 1] [1995-01-18 2]]" {
			t.Fatalf("table: %d rows in %d pages, scan %v", tab.Rows, tab.Pages, rows)
		}
	})
}

// loopParseDate is parseDate as a digit loop over each field, every
// field handed to DateYMD: the oracle of parseDate's straight-line path.
func loopParseDate(b []byte) (Value, error) {
	if !dateShaped(b) {
		return Value{}, badDate(b)
	}
	num := func(s []byte) int {
		n := 0
		for _, c := range s {
			n = n*10 + int(c-'0')
		}
		return n
	}
	return DateYMD(num(b[0:4]), num(b[5:7]), num(b[8:10])), nil
}

// TestParseDateMatchesDateYMD: every all-digit cell of years 0000–9999,
// months 01–12 and days 00–99 parses to DateYMD's day count, day 00 and
// days past the month's end counting on into the neighbour months.
func TestParseDateMatchesDateYMD(t *testing.T) {
	cell := []byte("0000-00-00")
	for y := 0; y <= 9999; y++ {
		cell[0], cell[1], cell[2], cell[3] = byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10)
		for m := 1; m <= 12; m++ {
			cell[5], cell[6] = byte('0'+m/10), byte('0'+m%10)
			for d := 0; d <= 99; d++ {
				cell[8], cell[9] = byte('0'+d/10), byte('0'+d%10)
				got, err := parseDate(cell)
				if want := DateYMD(y, m, d); err != nil || got != want {
					t.Fatalf("parseDate(%q) = %v, %v; want %v", cell, got, err, want)
				}
			}
		}
	}
}
