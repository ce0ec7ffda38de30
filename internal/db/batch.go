package db

import (
	"encoding/binary"
	"fmt"
)

// Vectorized execution: operators exchange RowBatch slabs instead of
// single rows, so the host Go process pays one interface call, one
// bookkeeping pass and O(1) allocations per batch instead of per row —
// the same per-row software cost the paper identifies as the Conv-path
// bottleneck (§V-C), applied to the simulator's own hot loop.

// DefaultBatchSize is the row capacity of a RowBatch when the caller
// does not pick one (Exec.BatchSize == 0).
const DefaultBatchSize = 1024

// strFix records one string cell waiting for FinishStrings: the cell at
// rows[row][col] holds a packed (offset, length) into the byte arena
// instead of a materialized Go string.
type strFix struct {
	row int32
	col int32
}

// RowBatch is a reusable, capacity-bounded slab of rows plus a
// selection vector. Producers fill the physical rows; filters narrow
// the live set by editing the selection vector without copying rows.
//
// Memory discipline: rows produced into a batch (via NewRow or
// decodeRow) live in arenas owned by the batch and are valid only
// until the next Reset (equivalently: the next NextBatch call on the
// producing operator); Reset recycles the arenas. Consumers that retain
// rows must copy them — Collect copies them into a slab of its own. Rows
// added by reference via AppendRow are owned by the caller and follow
// the caller's lifetime.
type RowBatch struct {
	rows     []Row // physical row slots, grown by doubling up to capacity
	capacity int   // row capacity
	n        int   // physical rows present
	sel      []int // selection vector (indices into rows), if hasSel
	hasSel   bool

	vals rowSlab // Value arena backing rows carved with NewRow
	str  []byte  // byte arena for string cells pending FinishStrings
	fix  []strFix
}

// rowSlab carves rows from chunks of Value storage. It is the one row
// allocator of the executor: RowBatch.NewRow's arena, Collect's retained
// rows, BNLJoin's join buffer and every join's output. Each new chunk is
// as large as all the chunks before it together, from slabMinRows rows
// up to the owner's cap of rows per chunk, so a slab that holds a
// handful of rows pays for a handful.
//
// rewind recycles every chunk: rows carved after it overwrite rows
// carved before it. An owner rewinds only where its contract has let go
// of every row it handed out — RowBatch at Reset, a join when emit finds
// nothing pending (the consumer has called NextBatch again), BNLJoin
// when a block's inner scan ends. A slab never rewound, Collect's, only
// grows, and its rows live as long as somebody holds them.
type rowSlab struct {
	cur    []Value   // chunk being carved; cur[len(cur):cap(cur)] is free
	chunks [][]Value // every chunk so far, in carve order, each at length 0
	next   int       // chunks[next] is where carving goes when cur is full
	size   int       // Values across all chunks
}

// A slab's first chunk holds slabMinRows rows; the joins' and Collect's
// chunks stop growing at slabMaxRows rows, a RowBatch's at its capacity.
const (
	slabMinRows = 16
	slabMaxRows = 1024
)

// carve returns the next n cells of the slab, moving to another chunk
// (sized for maxRows rows of n cells at most) when the current one is
// full. The cells hold whatever they last held: the caller writes every
// one.
func (s *rowSlab) carve(n, maxRows int) Row {
	if cap(s.cur)-len(s.cur) < n {
		s.grow(n, maxRows)
	}
	at := len(s.cur)
	s.cur = s.cur[:at+n]
	return Row(s.cur[at : at+n : at+n])
}

// grow moves carving to the next recycled chunk with room for n cells,
// or to a fresh one when none is left.
func (s *rowSlab) grow(n, maxRows int) {
	for s.next < len(s.chunks) {
		c := s.chunks[s.next]
		s.next++
		if cap(c) >= n {
			s.cur = c
			return
		}
	}
	s.cur = make([]Value, 0, max(min(max(s.size, slabMinRows*n), maxRows*n), n))
	s.chunks = append(s.chunks, s.cur)
	s.next = len(s.chunks)
	s.size += cap(s.cur)
}

// uncarve gives back the last n cells carved.
func (s *rowSlab) uncarve(n int) { s.cur = s.cur[:len(s.cur)-n] }

// rewind recycles every chunk; see rowSlab.
func (s *rowSlab) rewind() { s.cur, s.next = nil, 0 }

// concat carves l ++ r (l's cells first) in chunks of up to slabMaxRows
// rows.
func (s *rowSlab) concat(l, r Row) Row {
	row := s.carve(len(l)+len(r), slabMaxRows)
	copy(row[copy(row, l):], r)
	return row
}

// NewRowBatch returns an empty batch holding up to capacity rows
// (DefaultBatchSize if capacity <= 0).
func NewRowBatch(capacity int) *RowBatch {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	return &RowBatch{capacity: capacity}
}

// Reset empties the batch for reuse. Rows previously carved from the
// batch's arenas become invalid.
func (b *RowBatch) Reset() {
	b.n = 0
	b.sel = b.sel[:0]
	b.hasSel = false
	b.vals.rewind()
	b.str = b.str[:0]
	b.fix = b.fix[:0]
}

// Cap returns the row capacity.
func (b *RowBatch) Cap() int { return b.capacity }

// Full reports whether another row can be appended.
func (b *RowBatch) Full() bool { return b.n >= b.capacity }

// growSlots doubles the row slots, from slabMinRows up to the capacity:
// a batch handed three rows holds three rows' worth of slots, not a full
// batch's.
func (b *RowBatch) growSlots() {
	if b.Full() {
		panic("db: RowBatch overflow")
	}
	rows := make([]Row, min(max(2*len(b.rows), slabMinRows), b.capacity))
	copy(rows, b.rows)
	b.rows = rows
}

// Len returns the number of live (selected) rows.
func (b *RowBatch) Len() int {
	if b.hasSel {
		return len(b.sel)
	}
	return b.n
}

// Row returns the i-th live row (through the selection vector).
func (b *RowBatch) Row(i int) Row {
	if b.hasSel {
		return b.rows[b.sel[i]]
	}
	return b.rows[i]
}

// AppendRow adds a caller-owned row by reference (no copy).
func (b *RowBatch) AppendRow(r Row) {
	if b.n == len(b.rows) {
		b.growSlots()
	}
	b.rows[b.n] = r
	if b.hasSel {
		b.sel = append(b.sel, b.n)
	}
	b.n++
}

// emitRows is the one "hand out materialized rows batch by batch" loop,
// under every operator that holds its output as a []Row: it resets b,
// appends rows[*at:] by reference until b is full or the rows run out,
// advances *at and returns the count (0 = drained). The slice is walked,
// never consumed: MemScan.Open rewinds by zeroing its cursor.
func emitRows(b *RowBatch, rows []Row, at *int) int {
	b.Reset()
	from := *at
	for ; *at < len(rows) && !b.Full(); *at++ {
		b.AppendRow(rows[*at])
	}
	return *at - from
}

// NewRow appends and returns a zero row of ncols cells carved from the
// batch's Value arena, whose chunks grow with the rows the batch is
// handed up to one full batch in all. The caller fills every cell.
func (b *RowBatch) NewRow(ncols int) Row {
	if b.Full() {
		panic("db: RowBatch overflow")
	}
	r := b.vals.carve(ncols, b.capacity)
	clear(r)
	b.AppendRow(r)
	return r
}

// unappend rolls back the most recent NewRow after a decode error,
// dropping its arena cells and any pending string fixups.
func (b *RowBatch) unappend(ncols int) {
	b.n--
	b.vals.uncarve(ncols)
	for len(b.fix) > 0 && int(b.fix[len(b.fix)-1].row) == b.n {
		b.fix = b.fix[:len(b.fix)-1]
	}
	if b.hasSel && len(b.sel) > 0 && b.sel[len(b.sel)-1] == b.n {
		b.sel = b.sel[:len(b.sel)-1]
	}
}

// Filter narrows the live set to rows keep() accepts, editing the
// selection vector in place (no row copying). It returns the new live
// count.
func (b *RowBatch) Filter(keep func(Row) bool) int {
	if !b.hasSel {
		b.sel = b.sel[:0]
		for i := 0; i < b.n; i++ {
			if keep(b.rows[i]) {
				b.sel = append(b.sel, i)
			}
		}
		b.hasSel = true
		return len(b.sel)
	}
	kept := b.sel[:0]
	for _, i := range b.sel {
		if keep(b.rows[i]) {
			kept = append(kept, i)
		}
	}
	b.sel = kept
	return len(b.sel)
}

// Keep truncates the live set to its first k rows (LIMIT cutting a
// batch mid-way).
func (b *RowBatch) Keep(k int) {
	if k >= b.Len() {
		return
	}
	if !b.hasSel {
		b.sel = b.sel[:0]
		for i := 0; i < k; i++ {
			b.sel = append(b.sel, i)
		}
		b.hasSel = true
		return
	}
	b.sel = b.sel[:k]
}

// cellOp is what the row decoder does with one cell: decode it as the
// column Type it equals or, with skipCell set, walk past a cell of that
// type. A schema's ops decode every cell; a scan's ops, built from the
// column mask the plan above it handed down, skip the cells nobody reads.
type cellOp uint8

const skipCell cellOp = 4

// decodeRow decodes one row off the front of buf into the batch (schema
// sch), returning bytes consumed. It is the one row decoder: cells land
// in the batch's Value arena and string bytes in its byte arena, so
// allocations are amortized over the batch. String cells are left packed
// until FinishStrings materializes them — callers must FinishStrings
// before any cell is read.
//
// ops says per column what to do with its cell; nil decodes them all. A
// skipped cell is walked, not materialized — it stays the zero Value and
// costs no arena bytes and no date parse — but its bytes pass every
// check a decoded cell's do, with the same error, and the row is walked
// to its end: a corrupt row fails whatever the mask, and the consumed
// length never depends on it.
func (b *RowBatch) decodeRow(buf []byte, sch *Schema, ops []cellOp) (int, error) {
	blen, n := binary.Uvarint(buf)
	if n <= 0 || blen > uint64(len(buf)-n) {
		return 0, fmt.Errorf("db: truncated row header")
	}
	if ops == nil {
		ops = sch.ops
	}
	body := buf[n : n+int(blen)]
	r := b.NewRow(len(ops))
	rowIdx := int32(b.n - 1)
	at := 0
	var err error
cells:
	for i, op := range ops {
		switch op {
		case cellOp(TInt), cellOp(TDecimal):
			v, k := binary.Varint(body[at:])
			if k <= 0 {
				err = cellErr("bad varint", sch, i)
				break cells
			}
			r[i] = Value{T: Type(op), I: v}
			at += k
		case cellOp(TDate):
			if at+10 > len(body) {
				err = cellErr("truncated date", sch, i)
				break cells
			}
			if r[i], err = parseDate(body[at : at+10]); err != nil {
				break cells
			}
			at += 10
		case cellOp(TString):
			slen, k := binary.Uvarint(body[at:])
			if k <= 0 || slen > uint64(len(body)-at-k) {
				err = cellErr("truncated string", sch, i)
				break cells
			}
			start := len(b.str)
			b.str = append(b.str, body[at+k:at+k+int(slen)]...)
			r[i] = Value{T: TString, I: int64(start)<<32 | int64(slen)}
			b.fix = append(b.fix, strFix{row: rowIdx, col: int32(i)})
			at += k + int(slen)
		case skipCell | cellOp(TInt), skipCell | cellOp(TDecimal):
			_, k := binary.Uvarint(body[at:]) // rejects what Varint rejects
			if k <= 0 {
				err = cellErr("bad varint", sch, i)
				break cells
			}
			at += k
		case skipCell | cellOp(TDate):
			if at+10 > len(body) {
				err = cellErr("truncated date", sch, i)
				break cells
			}
			if d := body[at : at+10]; !dateShaped(d) {
				err = badDate(d)
				break cells
			}
			at += 10
		case skipCell | cellOp(TString):
			slen, k := binary.Uvarint(body[at:])
			if k <= 0 || slen > uint64(len(body)-at-k) {
				err = cellErr("truncated string", sch, i)
				break cells
			}
			at += k + int(slen)
		}
	}
	if err != nil {
		b.unappend(len(ops))
		return 0, err
	}
	return n + int(blen), nil
}

// cellErr is the decoder's error for column i's cell, one text whether
// the cell was decoded or skipped.
func cellErr(what string, sch *Schema, i int) error {
	return fmt.Errorf("db: %s in column %s", what, sch.Cols[i].Name)
}

// FinishStrings materializes every string cell decoded since the last
// Reset with a single allocation: one string conversion of the byte
// arena, sliced per cell.
func (b *RowBatch) FinishStrings() {
	if len(b.fix) == 0 {
		return
	}
	s := string(b.str)
	for _, f := range b.fix {
		cell := &b.rows[f.row][f.col]
		start := int(cell.I >> 32)
		n := int(cell.I & 0xffffffff)
		*cell = Value{T: TString, S: s[start : start+n]}
	}
	b.fix = b.fix[:0]
	b.str = b.str[:0]
}
