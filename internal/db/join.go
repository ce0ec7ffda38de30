package db

import "fmt"

// joinOut is the output side the three joins share: matched rows wait in
// pending until NextBatch hands them out, and scratch is the reusable
// buffer each candidate pair is concatenated into for the join condition.
type joinOut struct {
	pending []Row
	handed  int // pending[:handed] already went out
	scratch Row
}

// emit hands out the next run of pending rows (0 = none waiting) and
// recycles the buffer once it drains.
func (o *joinOut) emit(b *RowBatch) int {
	n := emitRows(b, o.pending, &o.handed)
	if o.handed >= len(o.pending) {
		o.pending, o.handed = o.pending[:0], 0
	}
	return n
}

// match concatenates l and r (l's columns first) into scratch and
// reports whether cond — nil accepts every pair — holds on the result.
func (o *joinOut) match(l, r Row, cond Expr) bool {
	o.scratch = append(append(o.scratch[:0], l...), r...)
	return cond == nil || Truthy(cond.Eval(o.scratch))
}

// keep queues a copy of r — scratch, or a probe row that lives in an
// input batch — for output.
func (o *joinOut) keep(r Row) { o.pending = append(o.pending, r.Clone()) }

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
type BNLJoin struct {
	Ex    *Exec
	Outer Iterator
	// Inner rebuilds the inner scan for every block; each call must
	// return a fresh iterator over the same relation.
	Inner func() Iterator
	// On is evaluated over the concatenated row (outer columns first).
	On Expr

	sch    *Schema
	block  []Row
	cur    outerCursor // carries leftover outer rows across block fills
	inner  Iterator
	innerB *RowBatch
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
	j.block = nil
	j.cur = outerCursor{}
	j.joinOut = joinOut{}
	return j.Outer.Open()
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
				continue
			}
			j.Ex.chargeHost(j.Ex.Cost.HostJoinCPR * float64(len(j.block)) * float64(m))
			for ii := 0; ii < m; ii++ {
				ir := j.innerB.Row(ii)
				for _, or := range j.block {
					if j.match(or, ir, j.On) {
						j.keep(j.scratch)
					}
				}
			}
			continue
		}
		// Load the next outer block.
		for len(j.block) < j.Ex.JoinBufferRows {
			or, ok, err := j.cur.next(j.Outer, j.Ex)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			j.block = append(j.block, or.Clone())
		}
		if len(j.block) == 0 {
			return 0, nil
		}
		// Rescan the inner relation for this block.
		j.inner = j.Inner()
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
// materialized into a hash table and the left input probes it. Used
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

	sch   *Schema
	table map[string][]Row
	left  *RowBatch
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

func keyString(v Value) string {
	if v.T == TString {
		return "s" + v.S
	}
	return fmt.Sprintf("i%d", v.I)
}

// Open builds the hash table from the right input.
func (j *HashJoin) Open() error {
	j.Schema()
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.table = make(map[string][]Row, len(rows))
	for _, r := range rows {
		k := keyString(j.RightKey.Eval(r))
		j.table[k] = append(j.table[k], r)
	}
	j.Ex.chargeHost(float64(len(rows)) * j.Ex.Cost.HostJoinCPR)
	j.joinOut = joinOut{}
	return j.Left.Open()
}

// NextBatch probes with the next batch of left rows, emitting matches
// in left order.
func (j *HashJoin) NextBatch(b *RowBatch) (int, error) {
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
		j.Ex.chargeHost(j.Ex.Cost.HostJoinCPR * float64(m))
		for li := 0; li < m; li++ {
			lr := j.left.Row(li)
			// One match loop for the three flavours: an inner join keeps
			// every accepted pair; semi and anti stop at the first and
			// keep the left row if there was one (semi) or none (anti).
			hit := false
			for _, rr := range j.table[keyString(j.LeftKey.Eval(lr))] {
				if !j.match(lr, rr, j.Residual) {
					continue
				}
				hit = true
				if j.Semi || j.Anti {
					break
				}
				j.keep(j.scratch)
			}
			if (j.Semi || j.Anti) && hit != j.Anti {
				j.keep(lr)
			}
		}
	}
}

// Close closes the left input (right was drained in Open).
func (j *HashJoin) Close() error {
	j.table = nil
	return j.Left.Close()
}
