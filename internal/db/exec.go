package db

import (
	"fmt"
	"sort"

	"biscuit"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

// Stats accumulates execution counters; Fig. 10's I/O-reduction ratio is
// PagesOverLink(Conv run) / PagesOverLink(Biscuit run). The scan and
// fallback counters are mirrored onto the platform stats.Counters
// registry ("db.scan.conv", "db.scan.ndp", "db.pages.link",
// "db.ndp.fallback") so one observability surface covers the device and
// DB layers.
type Stats struct {
	PagesOverLink int64 // pages (equivalent) moved across the host interface
	PagesInternal int64 // pages read inside the device (NDP scans)
	RowsScanned   int64
	NDPScans      int64
	ConvScans     int64
	// NDPFallbacks counts offloaded scans that hit an uncorrectable
	// device error and transparently degraded to the Conv path.
	NDPFallbacks int64
}

// Exec is the execution context of one query run.
type Exec struct {
	H  *biscuit.Host
	DB *Database
	St Stats

	// JoinBufferRows is the block size of block-nested-loop joins (the
	// MariaDB join buffer); the inner table is rescanned once per block.
	JoinBufferRows int
	// BatchSize caps the rows per RowBatch exchanged between operators
	// (0 = DefaultBatchSize). Small values are useful in tests; large
	// values amortize per-batch overhead further.
	BatchSize int

	pendingCycles float64 // batched per-row CPU cost not yet paid
}

// NewExec builds an execution context with default knobs.
func NewExec(h *biscuit.Host, d *Database) *Exec {
	return &Exec{H: h, DB: d, JoinBufferRows: 4096}
}

// The Conv scan's I/O shape: it reads ahead convReadChunk bytes at a
// time, as convRequest-byte NVMe reads with convQueueDepth in flight.
const (
	convReadChunk  = 256 << 10
	convRequest    = 128 << 10
	convQueueDepth = 16
)

// batchCap returns the configured RowBatch row capacity.
func (ex *Exec) batchCap() int {
	if ex != nil && ex.BatchSize > 0 {
		return ex.BatchSize
	}
	return DefaultBatchSize
}

// AddLinkPages accounts n pages crossing the host link, in the query
// stats and on the mirrored platform counter (exported for the planner,
// whose sampling reads also cross the link).
func (ex *Exec) AddLinkPages(n int64) {
	ex.St.PagesOverLink += n
	ex.H.System().Plat.Ctrs.Add("db.pages.link", n)
}

// dbTrack is the shared trace track carrying every table-scan lifetime.
// Scans overlap (a join's inner rescans open while the outer is open, and
// the NDP fallback nests a ConvScan inside the dying scan), so the track
// holds async spans only.
const dbTrack = "host/db"

// scanLife is the Open-to-Close lifetime of one table scan, embedded in
// ConvScan and NDPScan so the bookkeeping exists once.
type scanLife struct {
	ex      *Exec      // set between begin and end
	kind    string     // "conv" or "ndp"
	span    trace.Span // "scan.<kind>" on the db track; inert when tracing is off
	started sim.Time   // begin time, for the duration histogram
}

// begin counts the scan in the query stats and on the mirrored
// "db.scan.<kind>" platform counter, opens its span and stamps the start.
func (l *scanLife) begin(ex *Exec, kind, table string) {
	if kind == "ndp" {
		ex.St.NDPScans++
	} else {
		ex.St.ConvScans++
	}
	plat := ex.H.System().Plat
	plat.Ctrs.Add("db.scan."+kind, 1)
	*l = scanLife{ex: ex, kind: kind, started: ex.H.Now()}
	if tr := plat.Trace; tr != nil {
		l.span = tr.BeginAsync(tr.Track(dbTrack), "scan."+kind).ArgStr("table", table)
	}
}

// end closes the span and records the Open-to-Close time in the
// "db.scan.<kind>" histogram. Idempotent: Close may run twice, or unopened.
func (l *scanLife) end() {
	if l.ex == nil {
		return
	}
	l.span.End()
	l.ex.H.System().Plat.Hists.Observe("db.scan."+l.kind, int64(l.ex.H.Now()-l.started))
	*l = scanLife{}
}

// Iterator is the vectorized operator interface. NextBatch fills b
// (resetting it first) and returns the number of live rows; 0 means
// end-of-stream. Operators never return 0 while more rows remain — a
// filter that kills a whole batch pulls the next one internally. Rows
// in b are valid until the following NextBatch call; consumers that
// retain rows must Clone them.
type Iterator interface {
	Open() error
	NextBatch(b *RowBatch) (int, error)
	Close() error
	Schema() *Schema
}

// execHolder lets Collect and adapters size their drain batch to the
// pipeline's configured Exec without widening the Iterator interface.
type execHolder interface{ exec() *Exec }

// batchCapOf returns the batch capacity configured for the iterator's pipeline,
// or the default when the iterator has no Exec (MemScan).
func batchCapOf(it Iterator) int {
	if h, ok := it.(execHolder); ok {
		if ex := h.exec(); ex != nil {
			return ex.batchCap()
		}
	}
	return DefaultBatchSize
}

// Collect drains an iterator into a slice of retained rows, copied into
// a slab of their own. Close errors propagate: device-side scan failures
// surface there (the stream just ends early from the host's point of
// view).
func Collect(it Iterator) ([]Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	b := NewRowBatch(batchCapOf(it))
	var out []Row
	var slab rowSlab
	for {
		n, err := it.NextBatch(b)
		if err != nil {
			_ = it.Close() // the NextBatch error is the interesting one
			return nil, err
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			out = append(out, slab.concat(b.Row(i), nil))
		}
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------
// ConvScan: the conventional path — every page crosses the NVMe link and
// the host CPU inspects every row.

// ConvScan scans a table on the host, applying an optional predicate.
type ConvScan struct {
	Ex   *Exec
	T    *Table
	Pred Expr // may be nil

	// ops is the row decoder's plan for this scan: narrow sets it from the
	// columns the plan above reads and Pred's; nil decodes every column.
	ops []cellOp

	file  *biscuit.File
	off   int64  // next unread file offset
	chunk []byte // readahead buffer
	cLen  int    // valid bytes in chunk
	cAt   int    // next undecoded page boundary within chunk
	cOff  int64  // file offset of chunk[0]

	pAt, pEnd int   // decode window of the current page within chunk
	pRows     int   // rows left to decode in the current page
	pOff      int64 // file offset of the current page (for errors)

	scanLife
}

// NewConvScan builds a host-side scan.
func (ex *Exec) NewConvScan(t *Table, pred Expr) *ConvScan {
	return &ConvScan{Ex: ex, T: t, Pred: pred}
}

func (s *ConvScan) exec() *Exec { return s.Ex }

// Schema returns the table schema.
func (s *ConvScan) Schema() *Schema { return s.T.Sch }

// Open opens the backing file.
func (s *ConvScan) Open() error {
	f, err := s.Ex.H.SSD().OpenFile(s.T.FileName, true)
	if err != nil {
		return err
	}
	s.file = f
	s.off = 0
	s.cLen, s.cAt, s.cOff = 0, 0, 0
	s.pAt, s.pEnd, s.pRows = 0, 0, 0
	s.begin(s.Ex, "conv", s.T.Name)
	return nil
}

// NextBatch decodes rows into b until it is full or the file ends,
// then applies the predicate via the selection vector. Sim-time is
// charged at fill time from the page row-count headers — identical
// totals and HostScan granularity to the row-at-a-time pipeline —
// while Go-side decode is lazy and batch-shaped.
func (s *ConvScan) NextBatch(b *RowBatch) (int, error) {
	for {
		b.Reset()
		for !b.Full() {
			more, err := s.decodeRow(b)
			if err != nil {
				return 0, err
			}
			if more {
				continue
			}
			if s.off >= s.file.Size() {
				break // file exhausted
			}
			if err := s.fill(); err != nil {
				return 0, err
			}
		}
		b.FinishStrings()
		if b.Len() == 0 {
			return 0, nil
		}
		if s.Pred != nil {
			pred := s.Pred
			if live := b.Filter(func(r Row) bool { return Truthy(pred.Eval(r)) }); live == 0 {
				continue
			}
		}
		return b.Len(), nil
	}
}

// decodeRow decodes the next row of the current chunk into b, stepping
// over page boundaries; it reports false once the chunk is exhausted.
func (s *ConvScan) decodeRow(b *RowBatch) (bool, error) {
	if s.pRows == 0 {
		if ok, err := s.nextPage(); !ok {
			return false, err
		}
	}
	k, err := b.decodeRow(s.chunk[s.pAt:s.pEnd], s.T.Sch, s.ops)
	if err != nil {
		return false, fmt.Errorf("conv scan %s @%d: %w", s.T.Name, s.pOff, err)
	}
	s.pAt += k
	s.pRows--
	return true, nil
}

// nextPage advances the decode window to the next non-empty page of
// the current chunk; corrupt media surfaces as pageExtent's error.
func (s *ConvScan) nextPage() (bool, error) {
	ps := s.T.PageSize
	for s.cAt+pageHeader <= s.cLen {
		start := s.cAt
		end := start + ps
		if end > s.cLen {
			end = s.cLen
		}
		s.cAt = end
		n, used, err := pageExtent(s.chunk[start:end])
		if err != nil {
			return false, fmt.Errorf("conv scan %s @%d: %w", s.T.Name, s.cOff+int64(start), err)
		}
		if n == 0 {
			continue
		}
		s.pAt = start + pageHeader
		s.pEnd = start + used
		s.pRows = n
		s.pOff = s.cOff + int64(start)
		return true, nil
	}
	return false, nil
}

// fill reads the next chunk over the host interface and charges the
// host software cost for decoding and filtering it (row counts come
// from the page headers; the actual Go decode happens lazily in
// NextBatch).
func (s *ConvScan) fill() error {
	n := convReadChunk
	if rem := s.file.Size() - s.off; int64(n) > rem {
		n = int(rem)
	}
	if cap(s.chunk) < n {
		s.chunk = make([]byte, n)
	}
	chunk := s.chunk[:n]
	ex := s.Ex
	if err := ex.H.SSD().ReadFileConvAsync(s.file, s.off, chunk, convRequest, convQueueDepth); err != nil {
		return err
	}
	s.cOff = s.off
	s.off += int64(n)
	s.cLen = n
	s.cAt = 0
	s.pRows = 0
	ps := s.T.PageSize
	ex.AddLinkPages(int64((n + ps - 1) / ps))

	// Host software cost: decode + evaluate, through the contended
	// memory system (this is what degrades under StreamBench load).
	rows := 0
	for at := 0; at+pageHeader <= n; at += ps {
		end := at + ps
		if end > n {
			end = n
		}
		rows += PageRowCount(chunk[at:end])
	}
	ex.St.RowsScanned += int64(rows)
	cycles := hostDecodeCPB * float64(n)
	if s.Pred != nil {
		cycles += hostEvalCPR * float64(rows)
	}
	plat := ex.H.System().Plat
	plat.HostScan(ex.H.Proc(), int64(n), cycles/float64(n))
	return nil
}

// Close releases the scan.
func (s *ConvScan) Close() error {
	s.cLen, s.cAt, s.pRows = 0, 0, 0
	s.end()
	return nil
}

// MemScan iterates rows already materialized in memory (intermediate
// results used more than once). The rows are caller-owned and emitted
// by reference.
type MemScan struct {
	Sch  *Schema
	Rows []Row
	at   int
}

// NewMemScan wraps rows.
func NewMemScan(sch *Schema, rows []Row) *MemScan { return &MemScan{Sch: sch, Rows: rows} }

// Schema returns the row schema.
func (m *MemScan) Schema() *Schema { return m.Sch }

// Open rewinds.
func (m *MemScan) Open() error {
	m.at = 0
	return nil
}

// NextBatch emits the next run of rows.
func (m *MemScan) NextBatch(b *RowBatch) (int, error) { return emitRows(b, m.Rows, &m.at), nil }

// Close is a no-op.
func (m *MemScan) Close() error { return nil }

// ---------------------------------------------------------------------
// Basic operators.

// FilterOp applies a predicate above any iterator, narrowing each
// batch's selection vector in place — no row copying.
type FilterOp struct {
	Ex   *Exec
	In   Iterator
	Pred Expr
}

func (f *FilterOp) exec() *Exec { return f.Ex }

// Schema passes through.
func (f *FilterOp) Schema() *Schema { return f.In.Schema() }

// Open opens the input.
func (f *FilterOp) Open() error { return f.In.Open() }

// NextBatch pulls batches until at least one row survives.
func (f *FilterOp) NextBatch(b *RowBatch) (int, error) {
	for {
		n, err := f.In.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		f.Ex.chargeHost(hostEvalCPR * float64(n))
		if live := b.Filter(func(r Row) bool { return Truthy(f.Pred.Eval(r)) }); live > 0 {
			return live, nil
		}
	}
}

// Close closes the input.
func (f *FilterOp) Close() error { return f.In.Close() }

// chargeHost accumulates small per-row host CPU costs, paying them in
// batches to keep simulator event counts low.
func (ex *Exec) chargeHost(cycles float64) {
	ex.pendingCycles += cycles
	if ex.pendingCycles >= 2.5e6 { // flush every ~1ms of host CPU
		ex.FlushCost()
	}
}

// FlushCost pays any accumulated fractional CPU cost; call at query end.
func (ex *Exec) FlushCost() {
	if ex.pendingCycles > 0 {
		ex.H.System().Plat.HostCPU.Exec(ex.H.Proc(), ex.pendingCycles)
		ex.pendingCycles = 0
	}
}

// ProjectOp computes output expressions.
type ProjectOp struct {
	Ex    *Exec
	In    Iterator
	Exprs []Expr
	Names []string

	sch *Schema
	in  *RowBatch
}

func (pr *ProjectOp) exec() *Exec { return pr.Ex }

// Schema returns the output schema. Before the first row the column
// types are provisional (decimal); the names are exact, which is what
// downstream plan construction needs.
func (pr *ProjectOp) Schema() *Schema {
	if pr.sch != nil {
		return pr.sch
	}
	return pr.schemaFrom(nil)
}

// schemaFrom names the output columns and types them after first, the
// first output row (nil = provisional types).
func (pr *ProjectOp) schemaFrom(first Row) *Schema {
	cols := make([]Column, len(pr.Exprs))
	for i := range cols {
		cols[i] = Column{Name: colName(pr.Names, "c", i), T: TDecimal}
		if first != nil {
			cols[i].T = first[i].T
		}
	}
	return NewSchema(cols...)
}

// colName names output column i of an operator: names[i] where the plan
// gave one, else the operator's prefix and the index ("c0", "g1").
func colName(names []string, prefix string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s%d", prefix, i)
}

// Open narrows the input to the columns the expressions read, then
// opens it.
func (pr *ProjectOp) Open() error {
	narrow(pr.In, pr.inCols())
	return pr.In.Open()
}

// inCols is the mask of the input columns the expressions read.
func (pr *ProjectOp) inCols() []bool { return readCols(width(pr.In), pr.Exprs...) }

// NextBatch projects one input batch into b; output rows are carved
// from b's arena.
func (pr *ProjectOp) NextBatch(b *RowBatch) (int, error) {
	if pr.in == nil || pr.in.Cap() < b.Cap() {
		pr.in = NewRowBatch(b.Cap())
	}
	n, err := pr.In.NextBatch(pr.in)
	if err != nil || n == 0 {
		return 0, err
	}
	b.Reset()
	for i := 0; i < n; i++ {
		r := pr.in.Row(i)
		out := b.NewRow(len(pr.Exprs))
		for c, e := range pr.Exprs {
			out[c] = e.Eval(r)
		}
		if pr.sch == nil {
			pr.sch = pr.schemaFrom(out)
		}
	}
	pr.Ex.chargeHost(float64(len(pr.Exprs)) * 10 * float64(n))
	return n, nil
}

// Close closes the input.
func (pr *ProjectOp) Close() error { return pr.In.Close() }

// LimitOp truncates the stream, cutting the final batch mid-way via
// the selection vector.
type LimitOp struct {
	In   Iterator
	N    int
	seen int
}

func (l *LimitOp) exec() *Exec {
	if h, ok := l.In.(execHolder); ok {
		return h.exec()
	}
	return nil
}

// Schema passes through.
func (l *LimitOp) Schema() *Schema { return l.In.Schema() }

// Open opens the input.
func (l *LimitOp) Open() error {
	l.seen = 0
	return l.In.Open()
}

// NextBatch stops after N rows.
func (l *LimitOp) NextBatch(b *RowBatch) (int, error) {
	if l.seen >= l.N {
		return 0, nil
	}
	n, err := l.In.NextBatch(b)
	if err != nil || n == 0 {
		return 0, err
	}
	if rem := l.N - l.seen; n > rem {
		b.Keep(rem)
		n = rem
	}
	l.seen += n
	return n, nil
}

// Close closes the input.
func (l *LimitOp) Close() error { return l.In.Close() }

// SortKey orders by an expression.
type SortKey struct {
	E    Expr
	Desc bool
}

// SortOp materializes and sorts the input.
type SortOp struct {
	Ex   *Exec
	In   Iterator
	Keys []SortKey

	rows []Row
	at   int
}

func (s *SortOp) exec() *Exec { return s.Ex }

// Schema passes through.
func (s *SortOp) Schema() *Schema { return s.In.Schema() }

// Open drains and sorts the input.
func (s *SortOp) Open() error {
	rows, err := Collect(s.In)
	if err != nil {
		return err
	}
	s.rows = rows
	s.at = 0
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.Keys {
			c := Compare(k.E.Eval(s.rows[i]), k.E.Eval(s.rows[j]))
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if n := len(rows); n > 1 {
		s.Ex.chargeHost(float64(n) * 30 * log2(float64(n)))
	}
	return nil
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

// NextBatch emits the next run of sorted rows.
func (s *SortOp) NextBatch(b *RowBatch) (int, error) { return emitRows(b, s.rows, &s.at), nil }

// Close releases buffers.
func (s *SortOp) Close() error {
	s.rows = nil
	return nil
}
