package db

import (
	"fmt"
	"slices"
)

// Projection pushdown inside the Go process. A plan's scans decode rows
// for the operators above them, and most of those operators read a few
// of the columns: Q1 reads 7 of lineitem's 16, and no query reads
// l_comment. narrow hands each scan a mask of the columns the plan above
// it reads, and the row decoder walks past the rest (see decodeRow). The
// modelled host is not told: it still pays the full MariaDB row decode,
// charged on the bytes that crossed the link, not on the cells the
// process chose to build.
//
// Only operators that drop columns call narrow, from their Open and
// before they open their input: ProjectOp and HashAggOp for their input,
// a semi or anti HashJoin for its build side. Above such an operator
// nothing reads the columns it drops, so a mask computed from it is
// complete, and a nested call computes the same mask as the outer one —
// it can never widen what an outer call decided, nor narrow it further.
// Collect never narrows: a plan that hands its rows to Go code decodes
// them whole.
//
// The in-memory joins apply the mask to the rows they hold as well. A
// HashJoin build row keeps only the cells read once the index is built —
// the residual's and, for an inner join, those read above (rightNeed) —
// as the key is indexed on arrival; a BNLJoin block row keeps those On
// and the operators above read (outerNeed). Output rows carry the held
// row at full width, the other cells zero, as a narrowed scan leaves them.

// narrow hands need — a mask of the columns of the iterator's rows that
// some operator above reads — down to it and, through each operator the
// switch knows, on to the scans at the leaves. A nil need is every column: it narrows
// nothing, and a column-dropping operator below still narrows its own
// input when it opens. An operator the switch does not know stops the
// narrowing: its subtree decodes in full, which is slower but never
// wrong.
func narrow(it Iterator, need []bool) {
	if need == nil {
		return
	}
	if len(need) != width(it) {
		panic(fmt.Sprintf("db: a %d-column mask over %T's %d-column rows", len(need), it, width(it)))
	}
	switch op := it.(type) {
	case *ConvScan:
		op.ops = op.T.Sch.decodeOps(withCols(need, op.Pred))
	case *NDPScan:
		// The device filters on Pred; only shipped rows decode here. An
		// aggregating scan ships group rows, which nothing narrows.
		if !op.scanArgs().aggregating() {
			op.need = need
		}
	case *FilterOp:
		narrow(op.In, withCols(need, op.Pred))
	case *SortOp:
		keys := make([]Expr, len(op.Keys))
		for i, k := range op.Keys {
			keys[i] = k.E
		}
		narrow(op.In, withCols(need, keys...))
	case *LimitOp:
		narrow(op.In, need)
	case *ProjectOp:
		narrow(op.In, op.inCols())
	case *HashAggOp:
		narrow(op.In, op.inCols())
	case *BNLJoin:
		all, nO := withCols(need, op.On), width(op.Outer)
		op.outerNeed, op.innerNeed = all[:nO], all[nO:]
		narrow(op.Outer, op.outerNeed)
	case *HashJoin:
		nL := width(op.Left)
		if op.Semi || op.Anti {
			// need covers the left row alone; the residual reads both.
			all := withCols(widen(need, nL+width(op.Right)), op.Residual)
			narrow(op.Left, withCols(all[:nL], op.LeftKey))
			narrow(op.Right, op.buildCols())
			return
		}
		all := withCols(need, op.Residual)
		narrow(op.Left, withCols(all[:nL], op.LeftKey))
		op.rightNeed = all[nL:]
		narrow(op.Right, withCols(op.rightNeed, op.RightKey))
	case *INLJoin:
		// The inner rows come whole from FetchRows.
		all := withCols(need, op.Residual)
		narrow(op.Outer, withCols(all[:width(op.Outer)], op.OuterKey))
	}
}

// width is the column count of the iterator's rows.
func width(it Iterator) int { return len(it.Schema().Cols) }

// readCols returns a fresh n-column mask of the columns es read.
func readCols(n int, es ...Expr) []bool {
	need := make([]bool, n)
	colsOf(need, es...)
	return need
}

// withCols returns a fresh mask of need's columns and those es read.
func withCols(need []bool, es ...Expr) []bool {
	out := readCols(len(need), es...)
	for i, r := range need {
		out[i] = out[i] || r
	}
	return out
}

// widen returns a copy of need widened to n columns, the new ones
// unread.
func widen(need []bool, n int) []bool {
	return append(slices.Clone(need), make([]bool, n-len(need))...)
}
