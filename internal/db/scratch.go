package db

import (
	"slices"
	"unsafe"
)

// scratch is a Database's free list of host-side query memory: the
// RowBatches operators and drain loops exchange rows in, Conv read-ahead
// chunks and planner sample pages, and the slabs joins hold rows in and
// the indexes they find them by. A query takes what it needs from the
// Database it runs on and gives it back when it is done with it, so the
// next query reuses it instead of allocating and zeroing it again. Only
// Go memory changes hands: the simulation is charged nothing for it, and
// a query's rows, Stats and sim time are those it would have on fresh
// memory.
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
// the SSDlet's page filter and matcher — never reaches the host's list.
//
// A recycled cell holds whatever an earlier query left there, which is
// why every carve's caller writes every cell it is handed.
//
// A Database's procs run one at a time, so the list needs no lock; serve
// interleaves up to two queries on one Database, and a take hands out
// only what nobody holds.
type scratch struct {
	free  []scrap // oldest first
	bytes int     // the sizes of free's entries, at most scratchBytes
}

// scratchBytes bounds what a Database keeps between queries; giving back
// past it drops the oldest entries. A full 1024-row batch of lineitem's
// sixteen columns is 512 KiB of cells and a Conv read-ahead chunk
// 256 KiB. A serving shard query holds about one of each at once, so
// 8 MiB keeps what two in flight give back several times over. The TPC-H
// suite's join plans give back more, in many row widths, and fill it; a
// bound that dropped nothing of theirs (32 MiB) saves them a further
// tenth of what a query allocates.
const scratchBytes = 8 << 20

// scrap is one free entry: a batch, a byte buffer, a held-row slab
// whose rows are w cells wide, or a join index.
type scrap struct {
	batch *RowBatch
	buf   []byte
	slab  rowSlab
	w     int
	ix    joinIndex
	size  int // bytes held
}

// valueBytes is the size of one cell.
const valueBytes = int(unsafe.Sizeof(Value{}))

// bytes is the memory b holds: its row slots, cells and arenas.
func (b *RowBatch) bytes() int {
	return cap(b.rows)*int(unsafe.Sizeof(Row(nil))) + b.vals.size*valueBytes +
		cap(b.sel)*int(unsafe.Sizeof(0)) + cap(b.str) + cap(b.fix)*int(unsafe.Sizeof(strFix{}))
}

// scratch returns the free list of the Database ex runs on; nil — every
// take allocates, every give drops — without one.
func (ex *Exec) scratch() *scratch {
	if ex == nil || ex.DB == nil {
		return nil
	}
	return &ex.DB.scratch
}

// newest returns the index of the newest entry ok accepts, -1 if none
// does.
func (s *scratch) newest(ok func(e *scrap) bool) int {
	if s != nil {
		for i := len(s.free) - 1; i >= 0; i-- {
			if ok(&s.free[i]) {
				return i
			}
		}
	}
	return -1
}

// take removes entry i from the list and returns it.
func (s *scratch) take(i int) scrap {
	e := s.free[i]
	s.free = slices.Delete(s.free, i, i+1)
	s.bytes -= e.size
	return e
}

// give adds e to the list and drops the oldest entries past the bound.
func (s *scratch) give(e scrap) {
	if s == nil || e.size == 0 || e.size > scratchBytes {
		return
	}
	s.free = append(s.free, e)
	s.bytes += e.size
	drop := 0
	for s.bytes > scratchBytes {
		s.bytes -= s.free[drop].size
		drop++
	}
	s.free = slices.Delete(s.free, 0, drop)
}

// batch returns an empty batch of capacity rows, recycled if one is
// free: a batch's arenas serve any capacity.
func (s *scratch) batch(capacity int) *RowBatch {
	i := s.newest(func(e *scrap) bool { return e.batch != nil })
	if i < 0 {
		return NewRowBatch(capacity)
	}
	b := s.take(i).batch
	b.capacity = capacity
	return b
}

// giveBatch hands b back; nobody may read its rows after. Its row slots
// are cleared: rows it was handed by reference — a join's output, an
// aggregate's groups — are not the list's to keep alive.
func (s *scratch) giveBatch(b *RowBatch) {
	if b == nil {
		return
	}
	clear(b.rows)
	b.Reset()
	s.give(scrap{batch: b, size: b.bytes()})
}

// buf returns a buffer of n bytes, the smallest free one that holds
// them if there is one. Its bytes are whatever they last were.
func (s *scratch) buf(n int) []byte {
	best := -1
	if s != nil {
		for i, e := range s.free {
			if cap(e.buf) >= n && (best < 0 || cap(e.buf) < cap(s.free[best].buf)) {
				best = i
			}
		}
	}
	if best < 0 {
		return make([]byte, n)
	}
	return s.take(best).buf[:n]
}

// giveBuf hands buf back.
func (s *scratch) giveBuf(buf []byte) { s.give(scrap{buf: buf[:0], size: cap(buf)}) }

// slab returns an empty slab last carved in rows of w cells, or a new
// one: heldRows finds its rows by the chunk sizes rowSlab.grow makes for
// its width, so a slab is reused only at the width it was carved at.
func (s *scratch) slab(w int) rowSlab {
	i := s.newest(func(e *scrap) bool { return e.slab.size > 0 && e.w == w })
	if i < 0 {
		return rowSlab{}
	}
	return s.take(i).slab
}

// giveSlab hands back a slab carved in rows of w cells.
func (s *scratch) giveSlab(slab rowSlab, w int) {
	slab.rewind()
	s.give(scrap{slab: slab, w: w, size: slab.size * valueBytes})
}

// index returns an empty join index, the largest free one if there is
// one: a join given too small an index grows its maps, which is the
// allocation recycling saves, where one given too large an index only
// clears more of them.
func (s *scratch) index() joinIndex {
	best := -1
	if s != nil {
		for i, e := range s.free {
			if e.ix.bytes() > 0 && (best < 0 || e.size > s.free[best].size) {
				best = i
			}
		}
	}
	if best < 0 {
		return joinIndex{}
	}
	return s.take(best).ix
}

// giveIndex empties *x and hands its maps and chain slice back; the
// cleared maps keep no key of the join alive.
func (s *scratch) giveIndex(x *joinIndex) {
	x.reset(0)
	s.give(scrap{ix: *x, size: x.bytes()})
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
