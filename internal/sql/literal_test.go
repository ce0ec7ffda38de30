package sql

import (
	"math"
	"testing"

	"biscuit/internal/db"
)

func TestParseNumDecimalsAreExactCents(t *testing.T) {
	cases := []struct {
		text  string
		cents int64
		bad   bool
	}{
		{text: "90071992547409.93", cents: 9007199254740993},
		{text: "123456789012345.67", cents: 12345678901234567},
		{text: "92233720368547758.07", cents: math.MaxInt64},
		{text: "0.05", cents: 5},
		{text: "1.5", cents: 150},
		{text: "1.", cents: 100},
		{text: ".5", cents: 50},
		{text: "1.005", bad: true},
		{text: "0.005", bad: true},
		{text: "1.500", bad: true},
		{text: "92233720368547758.08", bad: true},
		{text: ".", bad: true},
	}
	for _, c := range cases {
		v, err := parseNum(NumNode{Text: c.text, Dec: true})
		switch {
		case c.bad && err == nil:
			t.Errorf("%s: got %v, want an error", c.text, v)
		case !c.bad && err != nil:
			t.Errorf("%s: %v", c.text, err)
		case !c.bad && v != db.Dec(c.cents):
			t.Errorf("%s: got %d cents, want %d", c.text, v.I, c.cents)
		}
	}
}

func TestParseDateRejectsImpossibleDays(t *testing.T) {
	for s, want := range map[string]db.Value{
		"1995-1-17":  db.DateYMD(1995, 1, 17),
		"1995-2-28":  db.DateYMD(1995, 2, 28),
		"1996-2-29":  db.DateYMD(1996, 2, 29),
		"2000-02-29": db.DateYMD(2000, 2, 29),
		"1995-12-31": db.DateYMD(1995, 12, 31),
	} {
		if v, err := parseDateFlex(s); err != nil || v != want {
			t.Errorf("%s: got %v, %v, want %v", s, v, err, want)
		}
	}
	for _, s := range []string{"1995-02-30", "1995-2-29", "1900-2-29", "1995-04-31", "1995-11-31", "1995-1-0", "1995-13-1"} {
		if v, err := parseDateFlex(s); err == nil {
			t.Errorf("%s: accepted as %v", s, v)
		}
	}
}
