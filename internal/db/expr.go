package db

import (
	"fmt"
	"strings"
)

// Expr evaluates over a row. Hand-built query plans (internal/tpch)
// compose these directly; there is deliberately no SQL text parser — the
// paper modifies MariaDB's planner, not its parser.
type Expr interface {
	Eval(r Row) Value
	String() string
	// cols marks in need every column Eval reads. It is what narrow
	// builds column masks from, so a new expression type cannot compile
	// without saying what it reads.
	cols(need []bool)
}

// colsOf marks in need the columns every non-nil expression of es reads.
func colsOf(need []bool, es ...Expr) {
	for _, e := range es {
		if e != nil {
			e.cols(need)
		}
	}
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Col references a column by index.
type Col struct {
	Idx  int
	Name string
}

// C builds a column reference from a schema.
func C(s *Schema, name string) Col { return Col{Idx: s.Col(name), Name: name} }

// Eval returns the referenced cell.
func (c Col) Eval(r Row) Value { return r[c.Idx] }

func (c Col) String() string { return c.Name }

// cols marks the column. A column past the mask is a plan bug — the
// expression was built over another row than the one it is handed — and
// panics rather than decode a row without it.
func (c Col) cols(need []bool) {
	if c.Idx < 0 || c.Idx >= len(need) {
		panic(fmt.Sprintf("db: column %s (#%d) outside a %d-column row", c.Name, c.Idx, len(need)))
	}
	need[c.Idx] = true
}

// Const is a literal.
type Const struct{ V Value }

// Lit builds a literal expression.
func Lit(v Value) Const { return Const{v} }

// Eval returns the literal.
func (c Const) Eval(Row) Value { return c.V }

func (c Const) String() string { return c.V.String() }

func (Const) cols([]bool) {}

// Cmp compares two expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval returns an int 1/0 boolean.
func (c Cmp) Eval(r Row) Value {
	cmp := Compare(c.L.Eval(r), c.R.Eval(r))
	ok := false
	switch c.Op {
	case EQ:
		ok = cmp == 0
	case NE:
		ok = cmp != 0
	case LT:
		ok = cmp < 0
	case LE:
		ok = cmp <= 0
	case GT:
		ok = cmp > 0
	case GE:
		ok = cmp >= 0
	}
	return boolVal(ok)
}

func (c Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

func (c Cmp) cols(need []bool) { colsOf(need, c.L, c.R) }

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// Truthy interprets a value as a boolean (predicates evaluate to Int 0/1).
func Truthy(v Value) bool { return v.I != 0 }

// And is n-ary conjunction.
type And struct{ Kids []Expr }

// AndOf builds a conjunction.
func AndOf(kids ...Expr) Expr {
	if len(kids) == 1 {
		return kids[0]
	}
	return And{kids}
}

// Eval short-circuits.
func (a And) Eval(r Row) Value {
	for _, k := range a.Kids {
		if !Truthy(k.Eval(r)) {
			return boolVal(false)
		}
	}
	return boolVal(true)
}

func (a And) String() string { return nary("AND", a.Kids) }

func (a And) cols(need []bool) { colsOf(need, a.Kids...) }

// Or is n-ary disjunction.
type Or struct{ Kids []Expr }

// OrOf builds a disjunction.
func OrOf(kids ...Expr) Expr {
	if len(kids) == 1 {
		return kids[0]
	}
	return Or{kids}
}

// Eval short-circuits.
func (o Or) Eval(r Row) Value {
	for _, k := range o.Kids {
		if Truthy(k.Eval(r)) {
			return boolVal(true)
		}
	}
	return boolVal(false)
}

func (o Or) String() string { return nary("OR", o.Kids) }

func (o Or) cols(need []bool) { colsOf(need, o.Kids...) }

func nary(op string, kids []Expr) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

// Not negates.
type Not struct{ Kid Expr }

// Eval negates the child's truthiness.
func (n Not) Eval(r Row) Value { return boolVal(!Truthy(n.Kid.Eval(r))) }

func (n Not) String() string { return "NOT " + n.Kid.String() }

func (n Not) cols(need []bool) { n.Kid.cols(need) }

// Between is inclusive range containment.
type Between struct {
	X      Expr
	Lo, Hi Value
}

// Eval checks Lo <= X <= Hi.
func (b Between) Eval(r Row) Value {
	v := b.X.Eval(r)
	return boolVal(Compare(v, b.Lo) >= 0 && Compare(v, b.Hi) <= 0)
}

func (b Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.X, b.Lo, b.Hi)
}

func (b Between) cols(need []bool) { b.X.cols(need) }

// In tests membership in a literal list.
type In struct {
	X    Expr
	Vals []Value
}

// Eval checks membership.
func (in In) Eval(r Row) Value {
	v := in.X.Eval(r)
	for _, w := range in.Vals {
		if Equal(v, w) {
			return boolVal(true)
		}
	}
	return boolVal(false)
}

func (in In) String() string {
	parts := make([]string, len(in.Vals))
	for i, v := range in.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.X, strings.Join(parts, ","))
}

func (in In) cols(need []bool) { in.X.cols(need) }

// Like is SQL LIKE: % matches any run of bytes, _ any one byte. There is
// no ESCAPE: both are always wildcards.
type Like struct {
	X       Expr
	Pattern string
	Negate  bool
}

// Eval matches the pattern against the string value.
func (l Like) Eval(r Row) Value {
	ok := likeMatch(l.X.Eval(r).S, l.Pattern)
	if l.Negate {
		ok = !ok
	}
	return boolVal(ok)
}

func (l Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %q)", l.X, op, l.Pattern)
}

func (l Like) cols(need []bool) { l.X.cols(need) }

// likeMatch reports whether s matches a LIKE pattern: % matches any run
// of bytes, _ any one byte. The %s cut the pattern into segments of fixed
// length; the first must start s, the last must end it, and each middle
// one is matched at its leftmost place after the one before, which finds
// a match whenever there is one.
func likeMatch(s, pattern string) bool {
	seg, rest, wild := strings.Cut(pattern, "%")
	if !wild {
		return len(s) == len(seg) && segMatch(s, seg)
	}
	if len(s) < len(seg) || !segMatch(s[:len(seg)], seg) {
		return false
	}
	s = s[len(seg):]
	for {
		seg, rest, wild = strings.Cut(rest, "%")
		if !wild {
			return len(s) >= len(seg) && segMatch(s[len(s)-len(seg):], seg)
		}
		i := segIndex(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
}

// segMatch reports whether s, of seg's length, matches the segment seg.
func segMatch(s, seg string) bool {
	for i := 0; i < len(seg); i++ {
		if seg[i] != '_' && seg[i] != s[i] {
			return false
		}
	}
	return true
}

// segIndex is the index of the leftmost place seg matches in s, or -1.
func segIndex(s, seg string) int {
	if strings.IndexByte(seg, '_') < 0 {
		return strings.Index(s, seg)
	}
	for i := 0; i+len(seg) <= len(s); i++ {
		if segMatch(s[i:i+len(seg)], seg) {
			return i
		}
	}
	return -1
}

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators over numeric values; decimal semantics follow
// fixed-point rules (multiplication rescales).
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// Arith combines two numeric expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval computes with fixed-point decimal propagation: any decimal
// operand makes the result decimal. Two integers stay in int64, so
// every result int64 holds is exact; division truncates toward zero.
// A zero divisor gives the zero of the result type, on every platform:
// converting the quotient's ±Inf or NaN to int64 would be
// implementation-defined.
func (a Arith) Eval(r Row) Value {
	l, rr := a.L.Eval(r), a.R.Eval(r)
	if l.T == TInt && rr.T == TInt {
		switch a.Op {
		case Add:
			return Int(l.I + rr.I)
		case Sub:
			return Int(l.I - rr.I)
		case Mul:
			return Int(l.I * rr.I)
		case Div:
			if rr.I != 0 {
				return Int(l.I / rr.I)
			}
		}
	}
	lf, rf := l.Float(), rr.Float()
	var f float64
	switch a.Op {
	case Add:
		f = lf + rf
	case Sub:
		f = lf - rf
	case Mul:
		f = lf * rf
	case Div:
		if rf != 0 {
			f = lf / rf
		}
	}
	if l.T == TDecimal || rr.T == TDecimal {
		return DecF(f)
	}
	return Int(int64(f))
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, [...]string{"+", "-", "*", "/"}[a.Op], a.R)
}

func (a Arith) cols(need []bool) { colsOf(need, a.L, a.R) }

// YearOf extracts the calendar year of a date expression as an Int.
type YearOf struct{ X Expr }

// Eval returns the year.
func (y YearOf) Eval(r Row) Value {
	year, _, _ := civil(y.X.Eval(r).I)
	return Int(year)
}

func (y YearOf) String() string { return "YEAR(" + y.X.String() + ")" }

func (y YearOf) cols(need []bool) { y.X.cols(need) }

// IfE is CASE WHEN Cond THEN Then ELSE Else END.
type IfE struct {
	Cond, Then, Else Expr
}

// Eval picks a branch.
func (e IfE) Eval(r Row) Value {
	if Truthy(e.Cond.Eval(r)) {
		return e.Then.Eval(r)
	}
	return e.Else.Eval(r)
}

func (e IfE) String() string {
	return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", e.Cond, e.Then, e.Else)
}

func (e IfE) cols(need []bool) { colsOf(need, e.Cond, e.Then, e.Else) }

// Substr extracts a byte substring [From, From+Len) of a string
// expression (1-based From, SQL style).
type Substr struct {
	X         Expr
	From, Len int
}

// Eval slices the string (clamped).
func (s Substr) Eval(r Row) Value {
	v := s.X.Eval(r).S
	lo := s.From - 1
	if lo < 0 || lo >= len(v) {
		return Str("")
	}
	hi := lo + s.Len
	if hi > len(v) {
		hi = len(v)
	}
	return Str(v[lo:hi])
}

func (s Substr) String() string {
	return fmt.Sprintf("SUBSTRING(%s,%d,%d)", s.X, s.From, s.Len)
}

func (s Substr) cols(need []bool) { s.X.cols(need) }

// Helper constructors used heavily by tpch query builders.

// EqS builds col = 'string'.
func EqS(s *Schema, col, val string) Expr { return Cmp{EQ, C(s, col), Lit(Str(val))} }

// EqD builds col = date.
func EqD(s *Schema, col, ymd string) Expr { return Cmp{EQ, C(s, col), Lit(MustDate(ymd))} }

// RangeD builds lo <= col < hi over dates.
func RangeD(s *Schema, col, lo, hi string) Expr {
	return AndOf(
		Cmp{GE, C(s, col), Lit(MustDate(lo))},
		Cmp{LT, C(s, col), Lit(MustDate(hi))},
	)
}
