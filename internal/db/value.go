// Package db is the relational engine the TPC-H reproduction runs on —
// the stand-in for MariaDB 5.5 + XtraDB in the paper's §V-C: slotted
// 16 KiB pages on the in-storage file system, a typed row codec, an
// expression evaluator, and a volcano-style executor whose table scans
// can run either on the host (Conv) or offloaded into the SSD behind the
// per-channel pattern matcher (Biscuit).
package db

import (
	"fmt"
	"time"
)

// Type enumerates column types.
type Type uint8

// Column types. Dates are stored in row pages as 10-byte ASCII
// YYYY-MM-DD — the layout choice that makes date predicates amenable to
// the key-based hardware matcher, as the paper's offloaded queries
// require.
const (
	TInt Type = iota
	TDecimal
	TDate
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TDecimal:
		return "decimal"
	case TDate:
		return "date"
	case TString:
		return "string"
	}
	return "?"
}

// Value is one typed cell. Decimals are fixed-point with two fraction
// digits stored in I (cents); dates are days since 1970-01-01 in I.
type Value struct {
	T Type
	I int64
	S string
}

// Int builds an integer value.
func Int(v int64) Value { return Value{T: TInt, I: v} }

// Dec builds a decimal from cents (e.g. Dec(12345) = 123.45).
func Dec(cents int64) Value { return Value{T: TDecimal, I: cents} }

// DecF builds a decimal from a float, rounding to cents.
func DecF(f float64) Value {
	if f >= 0 {
		return Value{T: TDecimal, I: int64(f*100 + 0.5)}
	}
	return Value{T: TDecimal, I: int64(f*100 - 0.5)}
}

// Str builds a string value.
func Str(s string) Value { return Value{T: TString, S: s} }

// DateYMD builds a date value from calendar components. A day outside
// the month counts on into its neighbours, as time.Date has it (the page
// decoder hands over whatever two digits the media held); a month outside
// 1–12 is left to time.Date itself. parseDate computes the same days for
// months 1–12 in straight lines; the two must stay equal.
func DateYMD(y, m, d int) Value {
	if m < 1 || m > 12 {
		t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
		return Value{T: TDate, I: t.Unix() / 86400}
	}
	// Days from a civil date, in integers: years run March to February,
	// so the leap day is a year's last and a month's offset into the
	// year is (153·m+2)/5; 400-year eras of 146 097 days do the rest.
	// 719 468 is 0000-03-01 to 1970-01-01.
	if m <= 2 {
		y--
	}
	era := floorDiv(int64(y), 400)
	yoe := int64(y) - era*400
	doy := int64((153*(uint(m+9)%12)+2)/5) + int64(d) - 1 // unsigned: m is 1–12
	return Value{T: TDate, I: era*146097 + yoe*365 + yoe/4 - yoe/100 + doy - 719468}
}

// civil is DateYMD's inverse: the calendar date of a day count.
func civil(days int64) (y int64, m, d int) {
	z := days + 719468
	era := floorDiv(z, 146097)
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	m = int(mp+2)%12 + 1
	y = yoe + era*400
	if m <= 2 {
		y++
	}
	return y, m, d
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// appendDate appends the YYYY-MM-DD form of a day count to dst without
// allocating. Years that do not fit four digits are time.Format's to
// spell.
func appendDate(dst []byte, days int64) []byte {
	y, m, d := civil(days)
	if y < 0 || y > 9999 {
		return time.Unix(days*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
	}
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10))
}

// firstDay and lastDay are the day counts of 0000-01-01 and 9999-12-31,
// the dates whose YYYY-MM-DD is ten bytes: the ones a row can store.
var firstDay, lastDay = DateYMD(0, 1, 1).I, DateYMD(9999, 12, 31).I

// MustDate parses "YYYY-MM-DD".
func MustDate(s string) Value {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic("db: bad date " + s)
	}
	return Value{T: TDate, I: int64(t.Unix() / 86400)}
}

// DateString renders a date value as YYYY-MM-DD.
func (v Value) DateString() string {
	var buf [10]byte
	return string(appendDate(buf[:0], v.I))
}

// Float returns the numeric value as float64 (decimals descaled).
func (v Value) Float() float64 {
	if v.T == TDecimal {
		return float64(v.I) / 100
	}
	return float64(v.I)
}

func (v Value) String() string {
	switch v.T {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TDecimal:
		sign, cents := "", uint64(v.I) // unsigned, so MinInt64's magnitude fits
		if v.I < 0 {
			sign, cents = "-", -cents
		}
		return fmt.Sprintf("%s%d.%02d", sign, cents/100, cents%100)
	case TDate:
		return v.DateString()
	case TString:
		return v.S
	}
	return "?"
}

// Compare orders two values of the same type: -1, 0, or 1. Comparing
// across types panics — the engine is strongly typed, like Biscuit's
// ports.
func Compare(a, b Value) int {
	if a.T != b.T {
		panic(typeMismatch(a.T, b.T))
	}
	if a.T == TString {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	}
	return 0
}

// typeMismatch is what comparing values of two types panics with.
func typeMismatch(a, b Type) string { return fmt.Sprintf("db: comparing %v with %v", a, b) }

// Equal reports whether two same-typed values are equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is one tuple.
type Row []Value

// Clone copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
