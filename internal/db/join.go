package db

import "slices"

// joinOut is the output side the three joins share: a candidate pair is
// built once, in the join's slab, and either stays there queued in
// pending until NextBatch hands it out or gives its cells back.
//
// The slab is recycled: emit rewinds it when it finds nothing pending,
// that is when every queued row went out in an earlier batch and the
// consumer has called NextBatch again — by the Iterator contract it then
// holds none of them. A join allocates for the most rows it queues at
// once, not for every row it emits.
type joinOut struct {
	pending []Row
	handed  int // pending[:handed] already went out
	slab    rowSlab
}

// emit hands out the next run of pending rows (0 = none waiting) and
// recycles the queue and the slab once it finds them drained.
func (o *joinOut) emit(b *RowBatch) int {
	n := emitRows(b, o.pending, &o.handed)
	if n == 0 {
		o.pending, o.handed = o.pending[:0], 0
		o.slab.rewind()
	}
	return n
}

// keep queues l ++ r for output.
func (o *joinOut) keep(l, r Row) { o.pending = append(o.pending, o.slab.concat(l, r)) }

// match reports whether cond — nil accepts every pair — holds on l ++ r,
// and with keep set queues an accepted pair for output. The row cond
// looks at is the output row: it is built in the slab, stays there if it
// is accepted and kept, and otherwise hands its cells back — it was never
// handed out, so nothing can be looking at them. A pair no condition has
// to see and nobody keeps is not built at all.
func (o *joinOut) match(l, r Row, cond Expr, keep bool) bool {
	if cond == nil && !keep {
		return true
	}
	row := o.slab.concat(l, r)
	ok := cond == nil || Truthy(cond.Eval(row))
	if ok && keep {
		o.pending = append(o.pending, row)
	} else {
		o.slab.uncarve(len(row))
	}
	return ok
}

// joinKey is the form a key cell takes in a joinIndex: only the field
// Compare reads for its type, so cells that compare equal are the same
// map key whatever their other field holds.
func joinKey(v Value) Value {
	if v.T == TString {
		return Value{T: TString, S: v.S}
	}
	return Value{T: v.T, I: v.I}
}

// joinIndex is the hash index the two in-memory joins probe — BNLJoin
// builds one over each block of its join buffer, HashJoin one over its
// build side. Rows are indexed by position 0, 1, 2, ... in turn; the
// positions of the rows carrying one key form a chain through next, in
// ascending order, and the map holds each chain's ends.
type joinIndex struct {
	ends map[Value]chain
	next []int32 // next[i]: the following position with row i's key, -1 after the last
	typ  Type    // type of the keys in ends, once there is one
}

// chain is the first and last position of one key's rows.
type chain struct{ first, last int32 }

// reset empties the index for the next set of rows.
func (x *joinIndex) reset() {
	if x.ends == nil {
		x.ends = make(map[Value]chain)
	}
	clear(x.ends)
	x.next = x.next[:0]
}

// add indexes the next row, position len(x.next), under key k.
func (x *joinIndex) add(k Value) {
	x.check(k)
	k = joinKey(k)
	x.typ = k.T
	i := int32(len(x.next))
	x.next = append(x.next, -1)
	c, ok := x.ends[k]
	if !ok {
		c.first = i
	} else {
		x.next[c.last] = i
	}
	c.last = i
	x.ends[k] = c
}

// probe returns the first position of the rows keyed k, -1 if none;
// next continues from there.
func (x *joinIndex) probe(k Value) int32 {
	x.check(k)
	if c, ok := x.ends[joinKey(k)]; ok {
		return c.first
	}
	return -1
}

// check keeps the engine's typing rule where a map lookup would lose it:
// a key of another type than the indexed ones would silently match
// nothing, where the comparison it stands for — Compare — panics.
func (x *joinIndex) check(k Value) {
	if len(x.ends) > 0 && k.T != x.typ {
		panic(typeMismatch(k.T, x.typ))
	}
}

// outerCursor walks a join's outer input one row at a time across its
// batches: BNLJoin fills its blocks from it, INLJoin probes with it.
type outerCursor struct {
	b   *RowBatch // current outer batch; unread rows carry over between calls
	at  int
	eof bool
}

// next returns the next outer row, valid until the call after it; ok is
// false once the input is exhausted.
func (c *outerCursor) next(in Iterator, ex *Exec) (r Row, ok bool, err error) {
	if c.b == nil {
		c.b = NewRowBatch(ex.batchCap())
	}
	if c.at >= c.b.Len() {
		if c.eof {
			return nil, false, nil
		}
		n, err := in.NextBatch(c.b)
		if err != nil || n == 0 {
			c.eof = err == nil
			return nil, false, err
		}
		c.at = 0
	}
	c.at++
	return c.b.Row(c.at - 1), true, nil
}

// BNLJoin is a block-nested-loop join, MariaDB's index-less join method
// (paper §V-C cites the block-nested-loop magnification for Q14): the
// outer input is consumed in blocks of Exec.JoinBufferRows rows, and the
// inner relation is *rescanned from storage* once per block. Join order
// therefore determines I/O volume — placing the (NDP-filtered) small
// side first is the paper's query-planning heuristic.
//
// What is modelled and what the Go process executes are two things. The
// simulated host runs flat BNL and is charged for it: every inner row
// against every row of the block, HostJoinCPR × |block| × m per inner
// batch. The process finds the same pairs by probing (MariaDB's BNLH
// over the same blocks): when On holds an equality between an outer and
// an inner column, each block is hashed on its side of it and an inner
// row meets only the block rows in its key's bucket. Rows come out
// inner-row-major, block order within — the order of the pair loop.
type BNLJoin struct {
	Ex    *Exec
	Outer Iterator
	// Inner rebuilds the inner scan for every block; each call must
	// return a fresh iterator over the same relation.
	Inner func() Iterator
	// On is evaluated over the concatenated row (outer columns first).
	On Expr

	innerNeed []bool // narrow's mask for every fresh Inner(); nil = all

	sch       *Schema
	block     []Row
	blockRows rowSlab     // block's cells, rewound with the block
	cur       outerCursor // carries leftover outer rows across block fills
	inner     Iterator
	innerB    *RowBatch

	// On as the probe runs it: blockIx buckets the block by column
	// outerKey, an inner row probes with its column innerKey, and residual
	// is what of On is left to evaluate on a candidate pair. Without an
	// equality to key on the columns are -1: every row takes the zero
	// key, the one bucket holds the whole block, and residual is On.
	outerKey, innerKey int
	residual           Expr
	blockIx            joinIndex
	joinOut
}

func (j *BNLJoin) exec() *Exec { return j.Ex }

// Schema returns the concatenated schema.
func (j *BNLJoin) Schema() *Schema {
	if j.sch == nil {
		inner := j.Inner()
		j.sch = j.Outer.Schema().Concat(inner.Schema())
	}
	return j.sch
}

// Open opens the outer input.
func (j *BNLJoin) Open() error {
	j.Schema()
	j.block, j.blockRows = nil, rowSlab{}
	j.cur = outerCursor{}
	j.joinOut = joinOut{}
	j.outerKey, j.innerKey, j.residual = equiKey(j.On, len(j.Outer.Schema().Cols))
	return j.Outer.Open()
}

// equiKey splits a join condition over outer ++ inner rows, the outer
// row nOuter cells wide, into an equality between one outer and one inner
// column — the condition itself or a conjunct of it, operands in either
// order — and the rest of the condition (nil when nothing is left). The
// key columns are positions in their own rows; without such an equality
// they are -1 and residual is on.
func equiKey(on Expr, nOuter int) (outer, inner int, residual Expr) {
	conjuncts := []Expr{on}
	if and, isAnd := on.(And); isAnd {
		conjuncts = and.Kids
	}
	for i, c := range conjuncts {
		eq, isCmp := c.(Cmp)
		l, lCol := eq.L.(Col)
		r, rCol := eq.R.(Col)
		if !isCmp || eq.Op != EQ || !lCol || !rCol {
			continue
		}
		if l.Idx > r.Idx {
			l, r = r, l
		}
		if l.Idx >= nOuter || r.Idx < nOuter {
			continue // both columns on one side
		}
		if rest := slices.Delete(slices.Clone(conjuncts), i, i+1); len(rest) > 0 {
			residual = AndOf(rest...)
		}
		return l.Idx, r.Idx - nOuter, residual
	}
	return -1, -1, on
}

// keyCell returns the cell of r a join is keyed on: column col, or the
// zero key every row shares when there is no key column (col < 0).
func keyCell(r Row, col int) Value {
	if col < 0 {
		return Value{}
	}
	return r[col]
}

// NextBatch produces the next run of joined rows. Block boundaries fall
// at exactly Exec.JoinBufferRows outer rows regardless of batch size:
// leftover rows of a partially consumed outer batch carry over to the
// next block.
func (j *BNLJoin) NextBatch(b *RowBatch) (int, error) {
	for {
		if n := j.emit(b); n > 0 {
			return n, nil
		}
		// Advance the inner scan against the current block.
		if j.inner != nil {
			m, err := j.inner.NextBatch(j.innerB)
			if err != nil {
				return 0, err
			}
			if m == 0 {
				if err := j.inner.Close(); err != nil {
					return 0, err
				}
				j.inner = nil
				j.block = j.block[:0]
				j.blockRows.rewind()
				continue
			}
			j.Ex.chargeHost(hostJoinCPR * float64(len(j.block)) * float64(m))
			for ii := 0; ii < m; ii++ {
				// An inner row meets the block rows in its key's chain.
				ir := j.innerB.Row(ii)
				for bi := j.blockIx.probe(keyCell(ir, j.innerKey)); bi >= 0; bi = j.blockIx.next[bi] {
					j.match(j.block[bi], ir, j.residual, true)
				}
			}
			continue
		}
		// Load and index the next outer block.
		j.blockIx.reset()
		for len(j.block) < j.Ex.JoinBufferRows {
			or, ok, err := j.cur.next(j.Outer, j.Ex)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			j.blockIx.add(keyCell(or, j.outerKey))
			j.block = append(j.block, j.blockRows.concat(or, nil))
		}
		if len(j.block) == 0 {
			return 0, nil
		}
		// Rescan the inner relation for this block.
		j.inner = j.Inner()
		narrow(j.inner, j.innerNeed)
		if j.innerB == nil {
			j.innerB = NewRowBatch(j.Ex.batchCap())
		}
		if err := j.inner.Open(); err != nil {
			return 0, err
		}
	}
}

// Close closes both inputs, reporting the first error.
func (j *BNLJoin) Close() error {
	var ierr error
	if j.inner != nil {
		ierr = j.inner.Close()
		j.inner = nil
	}
	oerr := j.Outer.Close()
	if ierr != nil {
		return ierr
	}
	return oerr
}

// HashJoin is an in-memory equality join: the right (build) input is
// materialized and indexed by key, and the left input probes it. Used
// where MariaDB fidelity does not matter for the offload story.
type HashJoin struct {
	Ex          *Exec
	Left, Right Iterator
	// LeftKey / RightKey are the equality key expressions.
	LeftKey, RightKey Expr
	// Semi emits the left row once on first match; Anti emits left rows
	// with no match (for EXISTS / NOT EXISTS subqueries).
	Semi, Anti bool
	// Residual, if non-nil, is evaluated on the concatenated row.
	Residual Expr

	sch     *Schema
	right   []Row     // the build side, materialized
	rightIx joinIndex // over right, by RightKey
	left    *RowBatch
	joinOut
}

func (j *HashJoin) exec() *Exec { return j.Ex }

// Schema returns the output schema.
func (j *HashJoin) Schema() *Schema {
	if j.Semi || j.Anti {
		return j.Left.Schema()
	}
	if j.sch == nil {
		j.sch = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.sch
}

// buildCols is the mask of the right columns a semi or anti join reads:
// RightKey's and the residual's right-hand ones.
func (j *HashJoin) buildCols() []bool {
	nL := width(j.Left)
	return withCols(readCols(nL+width(j.Right), j.Residual)[nL:], j.RightKey)
}

// Open materializes and indexes the right input — narrowed to the
// columns the join reads when it emits only left rows.
func (j *HashJoin) Open() error {
	j.Schema()
	if j.Semi || j.Anti {
		narrow(j.Right, j.buildCols())
	}
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.right = rows
	j.rightIx.reset()
	for _, r := range rows {
		j.rightIx.add(j.RightKey.Eval(r))
	}
	j.Ex.chargeHost(float64(len(rows)) * hostJoinCPR)
	j.joinOut = joinOut{}
	return j.Left.Open()
}

// NextBatch probes with the next batch of left rows, emitting matches
// in left order.
func (j *HashJoin) NextBatch(b *RowBatch) (int, error) {
	pairs := !j.Semi && !j.Anti // an inner join: every accepted pair is output
	for {
		if n := j.emit(b); n > 0 {
			return n, nil
		}
		if j.left == nil {
			j.left = NewRowBatch(j.Ex.batchCap())
		}
		m, err := j.Left.NextBatch(j.left)
		if err != nil || m == 0 {
			return 0, err
		}
		j.Ex.chargeHost(hostJoinCPR * float64(m))
		for li := 0; li < m; li++ {
			lr := j.left.Row(li)
			// One match loop for the three flavours: an inner join keeps
			// every accepted pair; semi and anti stop at the first and
			// keep the left row if there was one (semi) or none (anti).
			hit := false
			for ri := j.rightIx.probe(j.LeftKey.Eval(lr)); ri >= 0; ri = j.rightIx.next[ri] {
				if !j.match(lr, j.right[ri], j.Residual, pairs) {
					continue
				}
				hit = true
				if !pairs {
					break
				}
			}
			if !pairs && hit != j.Anti {
				j.keep(lr, nil)
			}
		}
	}
}

// Close closes the left input (right was drained in Open).
func (j *HashJoin) Close() error {
	j.right, j.rightIx = nil, joinIndex{}
	return j.Left.Close()
}
