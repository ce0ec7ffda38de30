package db

import "slices"

// scratch is a Database's free host-side query memory, one stack per
// kind: the RowBatches operators and drain loops exchange rows in, Conv
// read-ahead chunks and planner sample pages, the slabs joins hold rows
// in and the indexes they find them by. A query takes what it needs from
// the Database it runs on and gives it back when it is done with it, so
// the next query reuses it instead of allocating and zeroing it again.
// Only Go memory changes hands: the simulation is charged nothing for
// it, and a query's rows, Stats and sim time are those it would have on
// fresh memory.
//
// Who takes and who gives back:
//   - drain takes its batch and gives it back after closing its input;
//   - an operator that pulls its input into a batch of its own (ProjectOp,
//     the joins' outer, inner and probe batches, the NDP fallback's skip
//     batch) takes it on first use and gives it back at Close;
//   - ConvScan takes its read-ahead chunk at its first fill and gives it
//     back at Close; the planner takes a sample page for one probe;
//   - HashJoin takes its build side's slab and index at Open and gives
//     them back at Close; BNLJoin takes its block index at Open and gives
//     it back at Close. BNLJoin's join buffer, one block rewound per
//     block, stays with its join.
//
// A giver drops its reference as it gives back, so a Close that runs
// twice gives back once. Collect's slab is never taken from here: its rows
// are the caller's for as long as the caller keeps them. Device memory —
// the SSDlet's page filter and matcher — never reaches the host's stacks.
//
// Nothing bounds the stacks but their use: a take makes an entry only
// when it finds none it can use, so a stack never holds more entries than
// were out at once — of slabs, at one row width, and of buffers, at one
// size asked for. What an entry holds grows to the most a query asked of
// it.
//
// A recycled cell holds whatever an earlier query left there, which is
// why every carve's caller writes every cell it is handed.
//
// A Database's procs run one at a time, so the stacks need no lock; serve
// interleaves up to two queries on one Database, and a take hands out
// only what nobody holds.
type scratch struct {
	batches []*RowBatch
	bufs    [][]byte
	slabs   []widthSlab
	indexes []joinIndex
}

// widthSlab is a free slab and the width of the rows it was carved in.
type widthSlab struct {
	slab rowSlab
	w    int
}

// scratch returns the scratch of the Database ex runs on; nil — every
// take allocates, every give drops — without one.
func (ex *Exec) scratch() *scratch {
	if ex == nil || ex.DB == nil {
		return nil
	}
	return &ex.DB.scratch
}

// takeAt removes entry i of *stack and returns it.
func takeAt[T any](stack *[]T, i int) T {
	e := (*stack)[i]
	*stack = slices.Delete(*stack, i, i+1)
	return e
}

// batch returns an empty batch of capacity rows, the newest free one if
// there is one: a batch's arenas serve any capacity.
func (s *scratch) batch(capacity int) *RowBatch {
	if s == nil || len(s.batches) == 0 {
		return NewRowBatch(capacity)
	}
	b := takeAt(&s.batches, len(s.batches)-1)
	b.capacity = capacity
	return b
}

// giveBatch hands b back; nobody may read its rows after. Its row slots
// are cleared: rows it was handed by reference — a join's output, an
// aggregate's groups — are not the scratch's to keep alive.
func (s *scratch) giveBatch(b *RowBatch) {
	if s == nil || b == nil {
		return
	}
	clear(b.rows)
	b.Reset()
	s.batches = append(s.batches, b)
}

// buf returns a buffer of n bytes, the smallest free one that holds
// them if there is one. Its bytes are whatever they last were.
func (s *scratch) buf(n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	best := -1
	for i, b := range s.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, n)
	}
	return takeAt(&s.bufs, best)[:n]
}

// giveBuf hands buf back.
func (s *scratch) giveBuf(buf []byte) {
	if s != nil && cap(buf) > 0 {
		s.bufs = append(s.bufs, buf[:0])
	}
}

// slab returns an empty slab last carved in rows of w cells, the newest
// free one, or a new one: heldRows finds its rows by the chunk sizes
// rowSlab.grow makes for its width, so a slab is reused only at the
// width it was carved at.
func (s *scratch) slab(w int) rowSlab {
	if s != nil {
		for i := len(s.slabs) - 1; i >= 0; i-- {
			if s.slabs[i].w == w {
				return takeAt(&s.slabs, i).slab
			}
		}
	}
	return rowSlab{}
}

// giveSlab hands back a slab carved in rows of w cells.
func (s *scratch) giveSlab(slab rowSlab, w int) {
	if s != nil && slab.chunks != nil {
		slab.rewind()
		s.slabs = append(s.slabs, widthSlab{slab, w})
	}
}

// index returns an empty join index, the newest free one if there is
// one.
func (s *scratch) index() joinIndex {
	if s == nil || len(s.indexes) == 0 {
		return joinIndex{}
	}
	return takeAt(&s.indexes, len(s.indexes)-1)
}

// giveIndex empties *x and hands its maps and chain slice back; the
// cleared maps keep no key of the join alive.
func (s *scratch) giveIndex(x *joinIndex) {
	x.reset(0)
	if s != nil && x.next != nil {
		s.indexes = append(s.indexes, *x)
	}
	*x = joinIndex{}
}

// TakeBytes returns a buffer of n bytes from the query scratch of ex's
// Database, for a caller outside the package that reads into it (the
// planner's sampling probe). Its bytes are stale: the caller overwrites
// them before reading any. GiveBytes hands it back.
func (ex *Exec) TakeBytes(n int) []byte { return ex.scratch().buf(n) }

// GiveBytes hands a buffer from TakeBytes back; the caller keeps no
// reference to it.
func (ex *Exec) GiveBytes(buf []byte) { ex.scratch().giveBuf(buf) }
