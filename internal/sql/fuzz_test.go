package sql

import (
	"math"
	"testing"

	"biscuit/internal/db"
)

// FuzzParse: arbitrary input must yield either an AST or an error,
// never a panic or a hang.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT l_orderkey, l_shipdate FROM lineitem WHERE l_shipdate = '1995-1-17'",
		"SELECT SUM(x*(1-y)) AS r FROM t GROUP BY g ORDER BY r DESC LIMIT 5",
		"SELECT a FROM t WHERE x NOT LIKE '%y%' AND z IN ('A','B') OR NOT w BETWEEN 1 AND 2",
		"SELECT COUNT(DISTINCT a) FROM t -- comment",
		"select",
		"SELECT ((((",
		"'unterminated",
		"SELECT a FROM t WHERE 1.2.3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err == nil && stmt == nil {
			t.Fatal("nil statement without error")
		}
		if stmt != nil {
			// The canonical printer must handle every parsed tree.
			if stmt.Where != nil {
				_ = nodeString(stmt.Where)
			}
			for _, it := range stmt.Items {
				if !it.Star {
					_ = nodeString(it.Expr)
				}
			}
		}
	})
}

// FuzzLiteralRoundTrip: every non-negative cent count and every day
// from 0000-01-01 to 9999-12-31 reads back from its own rendering.
func FuzzLiteralRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(9007199254740993), uint64(9496))
	f.Add(uint64(math.MaxInt64), uint64(math.MaxUint64))
	first, last := db.DateYMD(0, 1, 1).I, db.DateYMD(9999, 12, 31).I
	f.Fuzz(func(t *testing.T, c, day uint64) {
		dec := db.Dec(int64(c >> 1))
		if v, err := parseNum(NumNode{Text: dec.String(), Dec: true}); err != nil || v != dec {
			t.Fatalf("%s read back as %v, %v", dec, v, err)
		}
		date := db.Value{T: db.TDate, I: first + int64(day%uint64(last-first+1))}
		if v, err := parseDateFlex(date.DateString()); err != nil || v != date {
			t.Fatalf("%s read back as %v, %v", date.DateString(), v, err)
		}
	})
}
