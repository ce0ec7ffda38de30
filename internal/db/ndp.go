package db

import (
	"errors"
	"fmt"
	"sort"

	"biscuit"
	"biscuit/internal/core"
	"biscuit/internal/fault"
	"biscuit/internal/isfs"
	"biscuit/internal/match"
)

// The device-side table scan: the paper's rewritten XtraDB datapath
// (§V-C) pushes a page-filtering scan into the SSD. Pages stream through
// the per-channel hardware matcher; only pages containing a key are
// looked at by the device CPU, which row-filters them with the full
// predicate and ships qualifying rows to the host. Non-matching pages
// never cross the NVMe link.
//
// Aggregation pushdown is an optional last stage of the same scan — the
// extension the paper's §VIII points at ("developing non-trivial
// data-intensive applications on Biscuit") and the capability Do et
// al.'s Smart SSD prototype hard-wired into firmware: the surviving rows
// are folded into per-group aggregate state on the device and only the
// group results are shipped, so device-to-host traffic becomes O(groups)
// instead of O(matching rows).

// NDPModuleName is the module carrying the device scan task.
const NDPModuleName = "xtradb-ndp.slet"

// NDPBatchBytes is the D2H output batch size of the offloaded scan:
// result rows are encoded on the device and shipped in packets of
// roughly this many bytes (rows never straddle packets).
const NDPBatchBytes = 32 << 10

// NDPScanID is the SSDlet class id of the device table scan.
const NDPScanID = "idTableScan"

// The software work of query execution, calibrated. Host cycles run at
// the host clock, device cycles at the device clock — the compute
// imbalance that makes "filter there, compute here" the winning split.
// hostEvalCPR reflects a real MariaDB row pipeline (handler calls,
// format conversion, predicate evaluation: ~0.8 µs/row on a 2.5 GHz
// Xeon — a 1-3 M rows/s scan rate), which is what limits Conv scans in
// the paper; the device side pays per-row costs only on pages the
// matcher IP let through. Device cycles run at 750 MHz, so per-byte
// software scanning is ~10× more expensive there — the reason the paper
// leans on the matcher IP (§VI: "software optimizations on embedded
// processors can't simply keep up").
const (
	hostDecodeCPB   float64 = 1.5  // host page decode, cycles per byte
	hostEvalCPR     float64 = 2000 // host predicate evaluation, cycles per row per term
	hostJoinCPR     float64 = 20   // per probe/output row
	hostAggCPR      float64 = 50   // per aggregated row
	devPageCheckCPP float64 = 300  // device cycles per matched-page bookkeeping
	devDecodeCPB    float64 = 3.0  // device decode of matched pages, cycles/byte
	devEvalCPR      float64 = 300  // device per-row predicate evaluation

	// devFoldCPR is the device's per-row cost of the aggregation stage,
	// on top of devEvalCPR.
	devFoldCPR = 60
)

// NDPScanArgs parameterizes one offloaded scan.
type NDPScanArgs struct {
	File string
	Keys []string // hardware matcher keys (page-level prefilter)
	Pred Expr     // full row predicate (exact filter), may be nil
	Sch  *Schema
	// Software disables the matcher IP: every page is decoded and
	// filtered by the device CPU. This reproduces the paper's negative
	// finding (§I) that software-only in-storage scanning cannot beat a
	// modern host on a fast SSD.
	Software bool
	// PageSize is the table's page size (needed by the software path to
	// slice its bulk reads back into pages).
	PageSize int
	// GroupBy and Aggs switch on the aggregation stage when either is
	// non-empty (no GroupBy = one scalar group): the scan ships
	// [group key..., aggregates...] rows instead of table rows.
	GroupBy []Expr
	Aggs    []Agg
}

// aggregating reports whether the aggregation stage is on.
func (a NDPScanArgs) aggregating() bool { return len(a.GroupBy)+len(a.Aggs) > 0 }

// outSchema is the schema of the rows the scan ships: the table's own,
// or [group columns..., aggregate columns...] under aggregation. Group
// types are probed by evaluating the expressions against a zero row;
// aggregate columns use their natural result types.
func (a NDPScanArgs) outSchema() *Schema {
	if !a.aggregating() {
		return a.Sch
	}
	zero := make(Row, len(a.Sch.Cols))
	for i, c := range a.Sch.Cols {
		zero[i] = Value{T: c.T}
	}
	cols := make([]Column, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		cols = append(cols, Column{Name: colName(nil, "g", i), T: g.Eval(zero).T})
	}
	for i, ag := range a.Aggs {
		t := TInt
		switch ag.F {
		case Sum, Min, Max:
			if ag.Arg != nil {
				t = ag.Arg.Eval(zero).T
			}
		case Avg:
			t = TDecimal
		}
		cols = append(cols, Column{Name: aggName(ag, i), T: t})
	}
	return NewSchema(cols...)
}

type ndpScanLet struct{}

func (ndpScanLet) Spec() biscuit.Spec {
	return biscuit.Spec{Out: []core.SpecType{biscuit.PacketPort}}
}

func (ndpScanLet) Run(c *biscuit.Context) error {
	args, ok := c.Arg(0).(NDPScanArgs)
	if !ok {
		return fmt.Errorf("db: NDP scan needs NDPScanArgs, got %T", c.Arg(0))
	}
	a, err := match.CompileHW(args.Keys)
	if err != nil {
		return err
	}
	out, err := biscuit.Out[biscuit.Packet](c, 0)
	if err != nil {
		return err
	}
	f, err := c.OpenFile(args.File, isfs.ReadOnly)
	if err != nil {
		return err
	}

	// Phase 1: stream the whole file through the matcher IPs, buffering
	// only the pages that contain at least one key. Row predicates are
	// page-superset-safe by construction (the planner derives keys from
	// literal constants of the predicate).
	type hit struct {
		off  int64
		data []byte
	}
	var hits []hit
	if args.Software {
		// Ablation: no matcher IP. Stream the file with plain internal
		// reads and hand every page to the CPU phase.
		const stride = 1 << 20
		buf := make([]byte, stride)
		for off := int64(0); off < f.Size(); off += stride {
			n := stride
			if rem := f.Size() - off; int64(n) > rem {
				n = int(rem)
			}
			if _, err := c.ReadFile(f, off, buf[:n]); err != nil {
				return err
			}
			for at := 0; at < n; at += args.PageSize {
				end := at + args.PageSize
				if end > n {
					end = n
				}
				hits = append(hits, hit{off + int64(at), append([]byte(nil), buf[at:end]...)})
			}
		}
	} else {
		if err := c.ScanFile(f, 0, int(f.Size()), func(off int64, data []byte) {
			if a.Contains(data) {
				hits = append(hits, hit{off, append([]byte(nil), data...)})
			}
		}); err != nil {
			return err
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].off < hits[j].off })
	}

	// Phase 2: the device CPU decodes matched pages and evaluates the
	// exact predicate. Qualifying rows are either re-encoded for the
	// host as they are found or, under aggregation, folded into the
	// group table whose result rows are encoded once every page is in.
	// Either way the rows leave in NDPBatchBytes packets. Pages decode
	// into one staging batch the scan owns for its lifetime: its rows die
	// at the next page, so what outlives a page (a group's cells, an
	// encoded row) leaves by value.
	stage := new(RowBatch)
	var batch []byte
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		pkt := biscuit.NewPacket(batch)
		batch = nil
		return out.Put(pkt)
	}
	var tab *groupTable
	rowCost := devEvalCPR
	if args.aggregating() {
		tab = newGroupTable(args.GroupBy, args.Aggs)
		rowCost += devFoldCPR
	}
	for _, hchunk := range hits {
		rows, err := stage.decodePage(hchunk.data, args.Sch)
		if err != nil {
			return fmt.Errorf("db: NDP scan decode @%d: %w", hchunk.off, err)
		}
		for i := 0; i < rows; i++ {
			r := stage.Row(i)
			if args.Pred != nil && !Truthy(args.Pred.Eval(r)) {
				continue
			}
			if tab != nil {
				tab.add(r)
			} else {
				batch = EncodeRow(batch, args.Sch, r)
			}
		}
		c.Compute(devPageCheckCPP +
			devDecodeCPB*float64(len(hchunk.data)) +
			rowCost*float64(rows))
		if len(batch) >= NDPBatchBytes && !flush() {
			return nil
		}
	}
	if tab != nil {
		outSch := args.outSchema()
		empty := len(tab.order) == 0
		for _, row := range tab.rows() {
			if empty {
				// The one row of a scalar aggregate over no input: type
				// its zero cells for the wire (a decimal Sum is Dec(0)).
				for i, col := range outSch.Cols {
					row[i].T = col.T
				}
			}
			batch = EncodeRow(batch, outSch, row)
			if len(batch) >= NDPBatchBytes && !flush() {
				return nil
			}
		}
	}
	flush()
	return nil
}

func ndpScanImage() *biscuit.ModuleImage {
	return biscuit.NewModule(NDPModuleName, 128<<10).
		RegisterSSDLet(NDPScanID, func() biscuit.SSDlet { return ndpScanLet{} })
}

// ensureNDP loads the device scan module once per database.
func (d *Database) ensureNDP(h *biscuit.Host) (*biscuit.Module, error) {
	if d.ndpModule != nil {
		return d.ndpModule, nil
	}
	m, err := h.SSD().LoadModule(NDPModuleName)
	if err != nil {
		return nil, err
	}
	d.ndpModule = m
	return m, nil
}

// NDPScan is the host-side iterator over an offloaded table scan.
type NDPScan struct {
	Ex   *Exec
	T    *Table
	Keys []string
	Pred Expr
	// Software selects the no-matcher ablation path.
	Software bool
	// GroupBy / Aggs, evaluated on the device over T's schema, switch on
	// the scan's aggregation stage (see NDPScanArgs).
	GroupBy []Expr
	Aggs    []Agg

	sch *Schema // rows shipped: T.Sch, or the aggregate columns
	// need marks the columns the plan above reads (nil: every column); narrow
	// sets it. The device still decodes whole rows: it filters on Pred
	// and re-encodes survivors for the link, so the bytes shipped do not
	// depend on need; only their decode on the host does.
	need []bool

	ndpRun
	scanLife
}

// ndpRun is the state of one Open-to-Close pass of an NDPScan.
type ndpRun struct {
	args    NDPScanArgs // what Open handed the device
	ops     []cellOp    // the host's decode of shipped rows, from need
	app     *biscuit.Application
	port    *biscuit.HostIn[biscuit.Packet]
	batch   []byte
	recvd   int64
	emitted int64     // rows already handed to the consumer
	fb      *ConvScan // engaged when the device scan dies on a media error
	waited  bool      // app.Wait already consumed
	// resume holds the live remainder of the fallback batch that
	// straddled the already-emitted row count: the fallback re-delivers
	// rows batch-aligned, so the first post-fault batch may start
	// mid-way through a ConvScan batch.
	resume   []Row
	resumeAt int
}

func (s *NDPScan) exec() *Exec { return s.Ex }

// NewNDPScan builds an offloaded scan; keys must satisfy the hardware
// matcher limits and page-cover the predicate.
func (ex *Exec) NewNDPScan(t *Table, keys []string, pred Expr) *NDPScan {
	return &NDPScan{Ex: ex, T: t, Keys: keys, Pred: pred}
}

// NewNDPAggScan builds a filter+aggregate offload: an NDPScan with the
// aggregation stage on.
func (ex *Exec) NewNDPAggScan(t *Table, keys []string, pred Expr, groupBy []Expr, aggs []Agg) *NDPScan {
	return &NDPScan{Ex: ex, T: t, Keys: keys, Pred: pred, GroupBy: groupBy, Aggs: aggs}
}

// scanArgs assembles the device-side arguments.
func (s *NDPScan) scanArgs() NDPScanArgs {
	return NDPScanArgs{
		File:     s.T.FileName,
		Keys:     s.Keys,
		Pred:     s.Pred,
		Sch:      s.T.Sch,
		Software: s.Software,
		PageSize: s.T.PageSize,
		GroupBy:  s.GroupBy,
		Aggs:     s.Aggs,
	}
}

// Schema returns the table schema or, under aggregation, [group
// columns..., aggregate columns...].
func (s *NDPScan) Schema() *Schema {
	if s.sch == nil {
		s.sch = s.scanArgs().outSchema()
	}
	return s.sch
}

// Open loads the scan module, wires the application and starts it.
func (s *NDPScan) Open() error {
	h := s.Ex.H
	m, err := s.Ex.DB.ensureNDP(h)
	if err != nil {
		return err
	}
	app := h.SSD().NewApplication()
	args := s.scanArgs()
	let, err := app.NewSSDLet(m, NDPScanID, args)
	if err != nil {
		return err
	}
	port, err := biscuit.ConnectTo[biscuit.Packet](app, let.Out(0))
	if err != nil {
		return err
	}
	if err := app.Start(); err != nil {
		return err
	}
	s.ndpRun = ndpRun{args: args, ops: s.Schema().decodeOps(s.need), app: app, port: port}
	s.begin(s.Ex, "ndp", s.T.Name)
	s.Ex.St.PagesInternal += s.T.Pages
	return nil
}

// NextBatch decodes the next shipped packet directly into b — the
// device's 32 KiB D2H byte-batches map onto host RowBatches without a
// per-row iterator step in between. When the device scan dies on an
// uncorrectable media error, the scan transparently degrades to the
// conventional host path: a ConvScan is opened, already-delivered rows
// are skipped batch-aligned (both paths emit predicate-passing rows in
// file order) and the stream continues without the consumer noticing —
// the paper's graceful-degradation story for NDP offload. Non-media
// device failures (bugs, bad arguments) still surface as errors, and so
// does a media error under aggregation: the accumulator state died with
// the device application and partial aggregates cannot be resumed on
// the host, so the caller reruns the query on the Conv plan (the FTL's
// read-retry and the interface's command retry have already absorbed
// everything absorbable by then).
func (s *NDPScan) NextBatch(b *RowBatch) (int, error) {
	for {
		if s.fb != nil {
			// What is left of the straddling batch goes out first.
			n := emitRows(b, s.resume, &s.resumeAt)
			var err error
			if n == 0 {
				n, err = s.fb.NextBatch(b)
			}
			s.emitted += int64(n)
			return n, err
		}
		if len(s.batch) > 0 {
			b.Reset()
			sch := s.Schema()
			consumed := 0
			for len(s.batch) > 0 && !b.Full() {
				k, err := b.decodeRow(s.batch, sch, s.ops)
				if err != nil {
					return 0, err
				}
				s.batch = s.batch[k:]
				consumed += k
			}
			b.FinishStrings()
			n := b.Len()
			s.Ex.chargeHost(hostDecodeCPB * float64(consumed))
			if !s.args.aggregating() {
				s.Ex.St.RowsScanned += int64(n) // group rows are results, not scanned rows
			}
			s.emitted += int64(n)
			return n, nil
		}
		pkt, ok := s.port.GetPacket()
		if !ok {
			err := s.finishApp()
			if err == nil {
				return 0, nil
			}
			if s.args.aggregating() || !errors.Is(err, fault.ErrUncorrectable) {
				return 0, err
			}
			if ferr := s.engageFallback(); ferr != nil {
				return 0, ferr
			}
			continue
		}
		s.batch = pkt.Bytes()
		s.recvd += int64(pkt.Len())
	}
}

// finishApp reaps the device application exactly once and reports its
// first contained failure.
func (s *NDPScan) finishApp() error {
	if s.app == nil || s.waited {
		return nil
	}
	s.waited = true
	if err := s.app.Reap(); err != nil {
		return fmt.Errorf("db: device scan failed: %w", err)
	}
	return nil
}

// engageFallback switches the iterator onto a ConvScan after a device
// media failure, fast-forwarding past the rows the NDP path already
// delivered. The skip is batch-aligned: whole fallback batches are
// discarded while they fit under the emitted count, and the surviving
// rows of the batch that straddles the boundary are stashed for the next
// NextBatch. The event is visible in Stats.NDPFallbacks and in the
// injector's fault schedule.
func (s *NDPScan) engageFallback() error {
	plat := s.Ex.H.System().Plat
	s.Ex.St.NDPFallbacks++
	plat.Ctrs.Add("db.ndp.fallback", 1)
	if tr := plat.Trace; tr != nil {
		tr.Instant(tr.Track(dbTrack), "ndp.fallback").ArgStr("table", s.T.Name)
	}
	plat.Inj.Record(fault.Fallback, "db.ndpscan "+s.T.Name)
	fb := s.Ex.NewConvScan(s.T, s.Pred)
	narrow(fb, s.need)
	if err := fb.Open(); err != nil {
		return err
	}
	if skip := s.emitted; skip > 0 {
		rb := NewRowBatch(s.Ex.batchCap())
		for skip > 0 {
			n, err := fb.NextBatch(rb)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if int64(n) <= skip {
				skip -= int64(n)
				continue
			}
			for i := int(skip); i < n; i++ {
				//biscuitvet:ignore arenaescape: rb is private to this scan and never Reset again, so its rows live until resume drains
				s.resume = append(s.resume, rb.Row(i))
			}
			skip = 0
		}
	}
	s.batch = nil
	s.fb = fb
	return nil
}

// Close waits for the device application and accounts link traffic.
func (s *NDPScan) Close() error {
	if s.app == nil {
		return nil
	}
	var firstErr error
	if s.fb != nil {
		firstErr = s.fb.Close()
	} else {
		// Drain any unread packets so a blocked device producer can
		// finish (the consumer may have stopped early, e.g. under a
		// LIMIT).
		for {
			pkt, ok := s.port.GetPacket()
			if !ok {
				break
			}
			s.recvd += int64(pkt.Len())
		}
		if err := s.finishApp(); err != nil && !errors.Is(err, fault.ErrUncorrectable) {
			// An uncorrectable media error after the consumer stopped
			// early is moot: every requested row was delivered.
			firstErr = err
		}
	}
	ps := int64(s.T.PageSize)
	s.Ex.AddLinkPages((s.recvd + ps - 1) / ps)
	s.ndpRun = ndpRun{}
	s.end()
	return firstErr
}
