package db

import (
	"fmt"
	"testing"
	"time"
)

// viaTime is the date arithmetic the integer forms replaced: DateYMD and
// DateString as the time package has them.
func viaTime(y, m, d int) (days int64, text string) {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400, t.Format("2006-01-02")
}

// TestDatesMatchTimePackage: the civil-day arithmetic answers as the time
// package does — for every day of two centuries, for the out-of-month
// days and out-of-year months a corrupt page's digits can hand DateYMD,
// and for years four digits cannot spell.
func TestDatesMatchTimePackage(t *testing.T) {
	check := func(y, m, d int) {
		t.Helper()
		days, text := viaTime(y, m, d)
		v := DateYMD(y, m, d)
		if v.T != TDate || v.I != days {
			t.Fatalf("DateYMD(%d, %d, %d) = %v day %d, want day %d", y, m, d, v.T, v.I, days)
		}
		if got := v.DateString(); got != text {
			t.Fatalf("DateString of day %d = %q, want %q", days, got, text)
		}
		year := YearOf{Lit(v)}.Eval(nil)
		if want := Int(int64(time.Unix(days*86400, 0).UTC().Year())); year != want {
			t.Fatalf("YearOf day %d = %v, want %v", days, year, want)
		}
	}
	for day := time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC); day.Year() <= 2100; day = day.AddDate(0, 0, 1) {
		check(day.Year(), int(day.Month()), day.Day())
	}
	for _, y := range []int{0, 1, 1900, 1999, 2000, 2023, 2024, 9999} {
		for m := 1; m <= 12; m++ {
			for d := 0; d <= 99; d++ {
				check(y, m, d)
			}
		}
		for _, m := range []int{-1, 0, 13, 99} {
			check(y, m, 31)
		}
	}
	for _, y := range []int{-401, -1, 10000, 283305} {
		check(y, 2, 29)
	}
}

// TestDateCellRoundTrip: a date cell written by encodeCells is read back
// by decodeRow as the same day, through the ten ASCII bytes the
// matcher keys on.
func TestDateCellRoundTrip(t *testing.T) {
	sch := NewSchema(Column{"d", TDate})
	for days := DateYMD(1, 1, 1).I; days <= DateYMD(9999, 12, 31).I; days += 97 {
		buf := EncodeRow(nil, sch, Row{{T: TDate, I: days}})
		_, text := viaTime(1970, 1, 1+int(days))
		if string(buf[len(buf)-10:]) != text {
			t.Fatalf("day %d encoded as %q, want %q", days, buf[len(buf)-10:], text)
		}
		got, _, err := decodeOne(buf, sch)
		if err != nil || got[0] != (Value{T: TDate, I: days}) {
			t.Fatalf("day %d (%s) decoded as %v, err %v", days, text, got, err)
		}
	}
}

// TestGroupKeyBytes: groups come out ordered by their key bytes, so the
// bytes are pinned to the form they always had — "s" + the string, or
// fmt's "i%d" of the integer field, each cell closed by a NUL.
func TestGroupKeyBytes(t *testing.T) {
	cells := []Value{Int(0), Int(9), Int(10), Int(-7), Int(-1 << 63), Dec(-12345), Dec(99),
		DateYMD(1969, 12, 31), DateYMD(1998, 9, 2), Str(""), Str("BUILDING"), Str("a\x00b"), Str("i10")}
	formatted := func(v Value) string {
		if v.T == TString {
			return "s" + v.S
		}
		return fmt.Sprintf("i%d", v.I)
	}
	sch := NewSchema(Column{"a", TInt}, Column{"b", TInt})
	tab := newGroupTable([]Expr{C(sch, "a"), C(sch, "b")}, []Agg{{F: CountAgg}, {F: CountDistinct, Arg: C(sch, "b")}})
	var want []string
	for i, a := range cells {
		if got := string(appendKey(nil, a)); got != formatted(a) {
			t.Fatalf("key of %v (%v) = %q, want %q", a, a.T, got, formatted(a))
		}
		b := cells[(i+1)%len(cells)]
		tab.add(Row{a, b})
		want = append(want, formatted(a)+"\x00"+formatted(b)+"\x00")
	}
	if fmt.Sprintf("%q", tab.order) != fmt.Sprintf("%q", want) {
		t.Fatalf("group keys %q, want %q", tab.order, want)
	}

	// A row that lands in a group that exists allocates nothing.
	again := Row{cells[0], cells[1]}
	if allocs := testing.AllocsPerRun(100, func() { tab.add(again) }); allocs != 0 {
		t.Fatalf("adding to an existing group allocates %.0f times, want 0", allocs)
	}
	if rows := tab.rows(); len(rows) != len(cells) {
		t.Fatalf("%d groups, want %d", len(rows), len(cells))
	}
}
