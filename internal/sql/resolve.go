package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"biscuit/internal/db"
)

// resolver turns AST expression nodes into typed db.Expr over a schema.
type resolver struct {
	sch *db.Schema
	// rewrites maps canonical node strings to column names of an
	// aggregate output schema (so SUM(x)/SUM(y) resolves post-agg).
	rewrites map[string]string
}

func (r *resolver) expr(n Node) (db.Expr, db.Type, error) {
	if r.rewrites != nil {
		if col, ok := r.rewrites[nodeString(n)]; ok {
			c := db.C(r.sch, col)
			return c, r.sch.Cols[c.Idx].T, nil
		}
	}
	switch x := n.(type) {
	case ColNode:
		if !r.sch.HasCol(x.Name) {
			return nil, 0, fmt.Errorf("sql: unknown column %q", x.Name)
		}
		c := db.C(r.sch, x.Name)
		return c, r.sch.Cols[c.Idx].T, nil
	case NumNode:
		v, err := parseNum(x)
		if err != nil {
			return nil, 0, err
		}
		return db.Lit(v), v.T, nil
	case StrNode:
		return db.Lit(db.Str(x.S)), db.TString, nil
	case DateNode:
		v, err := parseDateFlex(x.S)
		if err != nil {
			return nil, 0, err
		}
		return db.Lit(v), db.TDate, nil
	case BinNode:
		return r.bin(x)
	case NotNode:
		k, _, err := r.expr(x.X)
		if err != nil {
			return nil, 0, err
		}
		return db.Not{Kid: k}, db.TInt, nil
	case LikeNode:
		e, t, err := r.expr(x.X)
		if err != nil {
			return nil, 0, err
		}
		if t != db.TString {
			return nil, 0, fmt.Errorf("sql: LIKE on non-string expression")
		}
		return db.Like{X: e, Pattern: x.Pattern, Negate: x.Negate}, db.TInt, nil
	case InNode:
		e, t, err := r.expr(x.X)
		if err != nil {
			return nil, 0, err
		}
		var vals []db.Value
		for _, vn := range x.Vals {
			v, err := r.literal(vn, t)
			if err != nil {
				return nil, 0, err
			}
			vals = append(vals, v)
		}
		var out db.Expr = db.In{X: e, Vals: vals}
		if x.Negate {
			out = db.Not{Kid: out}
		}
		return out, db.TInt, nil
	case BetweenNode:
		e, t, err := r.expr(x.X)
		if err != nil {
			return nil, 0, err
		}
		lo, err := r.literal(x.Lo, t)
		if err != nil {
			return nil, 0, err
		}
		hi, err := r.literal(x.Hi, t)
		if err != nil {
			return nil, 0, err
		}
		return db.Between{X: e, Lo: lo, Hi: hi}, db.TInt, nil
	case AggNode:
		return nil, 0, fmt.Errorf("sql: aggregate %s used outside an aggregate query", x.Fn)
	}
	return nil, 0, fmt.Errorf("sql: unsupported expression %T", n)
}

func (r *resolver) bin(x BinNode) (db.Expr, db.Type, error) {
	switch x.Op {
	case "AND", "OR":
		l, _, err := r.expr(x.L)
		if err != nil {
			return nil, 0, err
		}
		rr, _, err := r.expr(x.R)
		if err != nil {
			return nil, 0, err
		}
		if x.Op == "AND" {
			return db.AndOf(l, rr), db.TInt, nil
		}
		return db.OrOf(l, rr), db.TInt, nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, lt, rr, rt, err := r.coercedPair(x.L, x.R)
		if err != nil {
			return nil, 0, err
		}
		if lt != rt {
			return nil, 0, fmt.Errorf("sql: cannot compare %v with %v", lt, rt)
		}
		return db.Cmp{Op: cmpOp(x.Op), L: l, R: rr}, db.TInt, nil
	case "+", "-", "*", "/":
		l, lt, err := r.expr(x.L)
		if err != nil {
			return nil, 0, err
		}
		rr, rt, err := r.expr(x.R)
		if err != nil {
			return nil, 0, err
		}
		out := db.TInt
		if lt == db.TDecimal || rt == db.TDecimal {
			out = db.TDecimal
		}
		return db.Arith{Op: arithOp(x.Op), L: l, R: rr}, out, nil
	}
	return nil, 0, fmt.Errorf("sql: unknown operator %q", x.Op)
}

// coercedPair resolves both sides of a comparison, converting literal
// sides to the other side's type (string literals to dates, integer
// literals against decimal columns, and so on).
func (r *resolver) coercedPair(ln, rn Node) (db.Expr, db.Type, db.Expr, db.Type, error) {
	l, lt, lerr := r.expr(ln)
	rr, rt, rerr := r.expr(rn)
	// Retry literal sides with the other side's target type.
	if lerr == nil && rerr == nil && lt != rt {
		if v, err := r.literal(rn, lt); err == nil {
			return l, lt, db.Lit(v), lt, nil
		}
		if v, err := r.literal(ln, rt); err == nil {
			return db.Lit(v), rt, rr, rt, nil
		}
		// Int vs Decimal promotes through scaling.
		if lt == db.TInt && rt == db.TDecimal {
			return promote(l), db.TDecimal, rr, rt, nil
		}
		if lt == db.TDecimal && rt == db.TInt {
			return l, lt, promote(rr), db.TDecimal, nil
		}
	}
	if lerr != nil {
		return nil, 0, nil, 0, lerr
	}
	if rerr != nil {
		return nil, 0, nil, 0, rerr
	}
	return l, lt, rr, rt, nil
}

// promote lifts an integer expression to decimal.
func promote(e db.Expr) db.Expr {
	return db.Arith{Op: db.Mul, L: e, R: db.Lit(db.Dec(100))}
}

// literal evaluates a literal node as a value of the wanted type.
func (r *resolver) literal(n Node, want db.Type) (db.Value, error) {
	switch x := n.(type) {
	case NumNode:
		v, err := parseNum(x)
		if err != nil {
			return db.Value{}, err
		}
		if v.T == want {
			return v, nil
		}
		if v.T == db.TInt && want == db.TDecimal {
			return db.Dec(v.I * 100), nil
		}
		return db.Value{}, fmt.Errorf("sql: numeric literal where %v expected", want)
	case StrNode:
		switch want {
		case db.TString:
			return db.Str(x.S), nil
		case db.TDate:
			return parseDateFlex(x.S)
		}
		return db.Value{}, fmt.Errorf("sql: string literal where %v expected", want)
	case DateNode:
		if want != db.TDate {
			return db.Value{}, fmt.Errorf("sql: date literal where %v expected", want)
		}
		return parseDateFlex(x.S)
	}
	return db.Value{}, fmt.Errorf("sql: expected a literal, got %T", n)
}

// parseNum reads an integer literal, or a decimal one straight into
// integer cents: a decimal takes at most two fractional digits, and no
// literal may pass int64.
func parseNum(x NumNode) (db.Value, error) {
	if !x.Dec {
		i, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return db.Value{}, fmt.Errorf("sql: bad number %q", x.Text)
		}
		return db.Int(i), nil
	}
	whole, frac, _ := strings.Cut(x.Text, ".")
	if len(frac) > 2 {
		return db.Value{}, fmt.Errorf("sql: decimal %q has more than two fractional digits", x.Text)
	}
	if whole+frac == "" {
		return db.Value{}, fmt.Errorf("sql: bad number %q", x.Text)
	}
	cents, err := strconv.ParseUint(whole+frac+"00"[len(frac):], 10, 63)
	if err != nil {
		return db.Value{}, fmt.Errorf("sql: bad number %q", x.Text)
	}
	return db.Dec(int64(cents)), nil
}

// parseDateFlex accepts yyyy-m-d with or without zero padding (the paper
// writes '1995-1-17'), and rejects a day past the end of its month.
func parseDateFlex(s string) (db.Value, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return db.Value{}, fmt.Errorf("sql: bad date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	// Day 0 of the next month is this month's last.
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > time.Date(y, time.Month(m+1), 0, 0, 0, 0, 0, time.UTC).Day() {

		return db.Value{}, fmt.Errorf("sql: bad date %q", s)
	}
	return db.DateYMD(y, m, d), nil
}

func cmpOp(op string) db.CmpOp {
	switch op {
	case "=":
		return db.EQ
	case "<>":
		return db.NE
	case "<":
		return db.LT
	case "<=":
		return db.LE
	case ">":
		return db.GT
	case ">=":
		return db.GE
	}
	panic("sql: bad cmp op " + op)
}

func arithOp(op string) db.ArithOp {
	switch op {
	case "+":
		return db.Add
	case "-":
		return db.Sub
	case "*":
		return db.Mul
	case "/":
		return db.Div
	}
	panic("sql: bad arith op " + op)
}
