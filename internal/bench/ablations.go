package bench

import (
	"fmt"
	"io"
	"strings"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sim"
	"biscuit/internal/tpch"
)

// Ablations isolates the design choices DESIGN.md §5 calls out, one
// fresh platform each: what the paper's §I/§VI claims (software-only
// in-storage scanning breaks even; the NDP-first join order is what
// makes Q14) rest on, and where NDP's headroom comes from.
type Ablations struct {
	SF float64 // TPC-H load of the five query ablations

	// Q14 under the offload planner with and without the NDP-first join
	// reordering (§V-C attributes Q14's win to it).
	JoinOrder struct{ NDPFirst, MariaDBOrder sim.Time }
	// Fig. 8's Query 1 on the host, through the matcher IP and as a
	// software-only device scan (§I, §VI).
	DeviceScan struct{ Conv, HWMatcher, SWDevice sim.Time }
	// A Q14-shaped join as Conv block-nested-loop, Conv index-nested-
	// loop and NDP-fed index-nested-loop.
	IndexJoin struct {
		ConvBNL, ConvINL, NDPINL sim.Time
		Rows                     int
	}
	// TPC-H queries offloaded per planner selectivity threshold.
	Threshold []ThresholdPoint
	// A Q6-shaped filter+aggregate on the host, with the filter
	// offloaded, and with both offloaded (the §VIII-style extension).
	AggPushdown struct{ Conv, Filter, FilterAgg Placement }
	// Biscuit-internal bandwidth per NAND channel count.
	Channels []ChannelPoint
	// The string search direct-attached and behind a 10 GbE storage
	// node (Fig. 1(c)).
	Networked struct{ Direct, Remote SearchPair }
	// One file read in 64 KiB requests, one at a time and all in flight
	// (§III-D recommends async).
	AsyncFile struct{ Sync, Async sim.Time }
}

// Placement is one operator placement's virtual time and the pages it
// moved over the host link.
type Placement struct {
	Time      sim.Time
	LinkPages int64
}

// ThresholdPoint is one planner threshold and the queries it offloads.
type ThresholdPoint struct {
	Threshold float64
	Offloaded int
}

// ChannelPoint is one channel count and the internal bandwidth it gives.
type ChannelPoint struct {
	Channels int
	GBps     float64
}

// SearchPair is the string search's two paths on one organization.
type SearchPair struct{ Conv, NDP sim.Time }

// WriteMarkdown renders one row per ablation; %.4g is num's format.
func (a Ablations) WriteMarkdown(w io.Writer) {
	row := func(name, format string, args ...any) []string { return []string{name, fmt.Sprintf(format, args...)} }
	var ths, offs, chs, bws []string
	for _, pt := range a.Threshold {
		ths, offs = append(ths, num(pt.Threshold)), append(offs, fmt.Sprint(pt.Offloaded))
	}
	for _, pt := range a.Channels {
		chs, bws = append(chs, fmt.Sprint(pt.Channels)), append(bws, num(pt.GBps))
	}
	jo, ds, ij, ap, af := a.JoinOrder, a.DeviceScan, a.IndexJoin, a.AggPushdown, a.AsyncFile
	d, r := a.Networked.Direct, a.Networked.Remote
	table(w, []string{"ablation", "result"},
		row("NDP-first join order (Q14)", "%.4g s with the reorder, %.4g s in MariaDB order: reordering alone is %.4g×",
			jo.NDPFirst.Seconds(), jo.MariaDBOrder.Seconds(), ratio(jo.MariaDBOrder, jo.NDPFirst)),
		row("software-only device scan (Fig. 8 Query 1)", "Conv %.4g s, HW matcher %.4g s (%.4g×), SW device %.4g s (%.4g×)",
			ds.Conv.Seconds(), ds.HWMatcher.Seconds(), ratio(ds.Conv, ds.HWMatcher), ds.SWDevice.Seconds(), ratio(ds.Conv, ds.SWDevice)),
		row("B+tree index joins (Q14-shaped)", "Conv-BNL %.4g s, Conv-INL %.4g s, NDP-INL %.4g s (%d rows each)",
			ij.ConvBNL.Seconds(), ij.ConvINL.Seconds(), ij.NDPINL.Seconds(), ij.Rows),
		row("planner threshold sweep", "threshold %s → %s of 22 queries offload", strings.Join(ths, " / "), strings.Join(offs, " / ")),
		row("aggregation pushdown (Q6-shaped)", "link pages %d (Conv, %.4g s) → %d (filter offload, %.4g s) → %d (filter+aggregate offload, %.4g s)",
			ap.Conv.LinkPages, ap.Conv.Time.Seconds(), ap.Filter.LinkPages, ap.Filter.Time.Seconds(), ap.FilterAgg.LinkPages, ap.FilterAgg.Time.Seconds()),
		row("channel-count sweep", "%s channels → %s GB/s internal", strings.Join(chs, " / "), strings.Join(bws, " / ")),
		row("networked organization (Fig. 1c)", "string-search gain %.4g× direct-attached → %.4g× behind a 10 GbE storage node (Conv %.4g s, NDP %.4g s)",
			ratio(d.Conv, d.NDP), ratio(r.Conv, r.NDP), r.Conv.Seconds(), r.NDP.Seconds()),
		row("sync vs async SSDlet file API (64 KiB requests)", "sync %.4g s, async %.4g s: %.4g×",
			af.Sync.Seconds(), af.Async.Seconds(), ratio(af.Sync, af.Async)))
}

// ablationSizes sizes the ablations: the TPC-H load of the query
// ablations, the region the channel sweep reads, the web log the
// networked search scans and the file the two file APIs read.
type ablationSizes struct {
	sf         float64
	sweepBytes int
	logBytes   int64
	fileBytes  int
}

func (c Config) ablationSizes() ablationSizes {
	if c.quick {
		return ablationSizes{sf: 0.004, sweepBytes: 4 << 20, logBytes: 4 << 20, fileBytes: 2 << 20}
	}
	return ablationSizes{sf: 0.01, sweepBytes: 16 << 20, logBytes: 16 << 20, fileBytes: 8 << 20}
}

// RunAblations runs the eight ablations: the five query ablations each
// as the host program of a fresh platform loaded with TPC-H, then the
// three that build their own.
func RunAblations(cfg Config) Ablations {
	sz := cfg.ablationSizes()
	out := Ablations{SF: sz.sf}
	for _, ablation := range []func(*Ablations, *biscuit.Host, *tpch.Data){
		(*Ablations).joinOrder, (*Ablations).deviceScan, (*Ablations).indexJoin,
		(*Ablations).threshold, (*Ablations).aggPushdown,
	} {
		sys := newSystem()
		data := loadTPCH(sys, sz.sf)
		sys.Run(func(h *biscuit.Host) { ablation(&out, h, data) })
	}
	out.channels(sz)
	out.networked(sz)
	out.asyncFile(sz)
	return out
}

func (a *Ablations) joinOrder(h *biscuit.Host, data *tpch.Data) {
	run := func(disable bool) sim.Time {
		_, took, _ := timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) {
			return tpch.ByID(14).Run(&tpch.QCtx{Ex: ex, D: data, Pl: planner.Default(), DisableReorder: disable})
		})
		return took
	}
	a.JoinOrder.NDPFirst = run(false)
	a.JoinOrder.MariaDBOrder = run(true)
}

func (a *Ablations) deviceScan(h *biscuit.Host, data *tpch.Data) {
	pred := fig8Pred(data.Lineitem.Sch, 1)
	keys := []string{"1995-01-17"}
	run := func(scan func(*db.Exec) db.Iterator) sim.Time {
		_, took, _ := timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) { return db.Collect(scan(ex)) })
		return took
	}
	a.DeviceScan.Conv = run(func(ex *db.Exec) db.Iterator { return ex.NewConvScan(data.Lineitem, pred) })
	a.DeviceScan.HWMatcher = run(func(ex *db.Exec) db.Iterator { return ex.NewNDPScan(data.Lineitem, keys, pred) })
	a.DeviceScan.SWDevice = run(func(ex *db.Exec) db.Iterator {
		s := ex.NewNDPScan(data.Lineitem, keys, pred)
		s.Software = true
		return s
	})
}

// indexJoin shows that indexes narrow Conv's gap but the NDP plan still
// wins: the offloaded filter collapses the probe count itself.
func (a *Ablations) indexJoin(h *biscuit.Host, data *tpch.Data) {
	ls := data.Lineitem.Sch
	pred := db.RangeD(ls, "l_shipdate", "1995-09-01", "1995-10-01")
	partIx, err := data.DB.BuildIndex(db.NewExec(h, data.DB), data.Part, "p_partkey")
	must("ablations: index on part", err)
	// The filtered lineitem scan probes the part index.
	inl := func(ex *db.Exec, outer db.Iterator) ([]db.Row, error) {
		return db.Collect(&db.INLJoin{Ex: ex, Outer: outer, Ix: partIx, OuterKey: db.C(ls, "l_partkey")})
	}

	// MariaDB order: part outer, lineitem rescanned per block.
	var bnl, cinl, ninl []db.Row
	bnl, a.IndexJoin.ConvBNL, _ = timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) {
		sch := data.Part.Sch.Concat(ls)
		return db.Collect(&db.BNLJoin{Ex: ex,
			Outer: ex.NewConvScan(data.Part, nil),
			Inner: func() db.Iterator { return ex.NewConvScan(data.Lineitem, pred) },
			On:    db.Cmp{Op: db.EQ, L: db.C(sch, "p_partkey"), R: db.C(sch, "l_partkey")}})
	})
	cinl, a.IndexJoin.ConvINL, _ = timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) {
		return inl(ex, ex.NewConvScan(data.Lineitem, pred))
	})
	ninl, a.IndexJoin.NDPINL, _ = timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) {
		return inl(ex, ex.NewNDPScan(data.Lineitem, []string{"1995-09"}, pred))
	})
	if len(bnl) != len(cinl) || len(cinl) != len(ninl) {
		panic(fmt.Sprintf("bench: ablations: join result mismatch: bnl=%d inl=%d ndp=%d", len(bnl), len(cinl), len(ninl)))
	}
	a.IndexJoin.Rows = len(bnl)
}

func (a *Ablations) threshold(h *biscuit.Host, data *tpch.Data) {
	for _, th := range []float64{0.05, 0.25, 0.60} {
		pl := planner.Default()
		pl.Threshold = th
		pt := ThresholdPoint{Threshold: th}
		for _, q := range tpch.All() {
			qc := &tpch.QCtx{Ex: db.NewExec(h, data.DB), D: data, Pl: pl}
			_, err := q.Run(qc)
			must(fmt.Sprintf("ablations: Q%d at threshold %g", q.ID, th), err)
			if qc.Offloaded {
				pt.Offloaded++
			}
		}
		a.Threshold = append(a.Threshold, pt)
	}
}

func (a *Ablations) aggPushdown(h *biscuit.Host, data *tpch.Data) {
	q6 := tpch.Q6(data.Lineitem.Sch)
	pred, aggs := q6.Pred, q6.Aggs
	keys := []string{"1994-"}

	run := func(plan func(*db.Exec) db.Iterator) (db.Value, Placement) {
		rows, took, ex := timedExec(h, data.DB, func(ex *db.Exec) ([]db.Row, error) { return db.Collect(plan(ex)) })
		return rows[0][0], Placement{Time: took, LinkPages: ex.St.PagesOverLink}
	}
	var conv, filter, agg db.Value
	conv, a.AggPushdown.Conv = run(func(ex *db.Exec) db.Iterator {
		return db.ScalarAgg(ex, ex.NewConvScan(data.Lineitem, pred), aggs...)
	})
	filter, a.AggPushdown.Filter = run(func(ex *db.Exec) db.Iterator {
		return db.ScalarAgg(ex, ex.NewNDPScan(data.Lineitem, keys, pred), aggs...)
	})
	agg, a.AggPushdown.FilterAgg = run(func(ex *db.Exec) db.Iterator {
		return ex.NewNDPAggScan(data.Lineitem, keys, pred, nil, aggs)
	})
	if !db.Equal(conv, filter) || !db.Equal(filter, agg) {
		panic(fmt.Sprintf("bench: ablations: aggregate mismatch: %v / %v / %v", conv, filter, agg))
	}
}

// channels locates where NDP's headroom over the 3.2 GB/s link appears.
func (a *Ablations) channels(sz ablationSizes) {
	for _, nch := range []int{4, 8, 16, 32} {
		cfg := platformConfig()
		cfg.NAND.Channels = nch
		newSystemWith(cfg).Run(func(h *biscuit.Host) {
			base := preload(h, "x", sz.sweepBytes)
			el := timeIt(h, func() {
				_, err := h.System().Plat.FTL.ReadRange(h.Proc(), base, sz.sweepBytes)
				must("ablations: read", err)
			})
			a.Channels = append(a.Channels, ChannelPoint{Channels: nch, GBps: gbps(sz.sweepBytes, el)})
		})
	}
}

// networked re-runs Table V's search with the SSD behind a storage
// node: Conv now pays the network for every byte, while the in-storage
// scan is untouched — NDP's advantage grows with distance from the data.
func (a *Ablations) networked(sz ablationSizes) {
	run := func(netBW float64) (out SearchPair) {
		cfg := platformConfig()
		cfg.Host.NetBW = netBW
		cfg.Host.NetLatency = 25 * sim.Microsecond
		newSystemWith(cfg).Run(func(h *biscuit.Host) {
			genLog(h, sz.logBytes)
			out.Conv, out.NDP, _ = searchBoth(h)
		})
		return out
	}
	a.Networked.Direct = run(0)
	a.Networked.Remote = run(1.25e9) // 10 GbE
}

func (a *Ablations) asyncFile(sz ablationSizes) {
	newSystem().Run(func(h *biscuit.Host) {
		const chunk = 64 << 10
		ftl := h.System().Plat.FTL
		base := preload(h, "a", sz.fileBytes)
		chunks := sz.fileBytes / chunk
		a.AsyncFile.Sync = timeIt(h, func() {
			for i := 0; i < chunks; i++ {
				_, err := ftl.ReadRange(h.Proc(), base+int64(i*chunk), chunk)
				must("ablations: read", err)
			}
		})
		buf := make([]byte, chunk)
		a.AsyncFile.Async = timeIt(h, func() {
			readWindowed(h, chunks, chunks, func(i int) *sim.Completion {
				return ftl.ReadRangeAsyncInto(h.Proc(), base+int64(i*chunk), buf)
			})
		})
	})
}
