package db

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"biscuit"
)

// BenchmarkExecBatch measures the batched executor on a filtered
// lineitem-shaped scan (the fixture schema mirrors the l_shipdate /
// l_comment columns the TPC-H queries filter on) at pipeline batch
// sizes 1, 64, and the default slab. allocs/op is the headline number:
// the RowBatch arena amortizes per-row Value and string allocations
// across the batch, so allocs/op must fall sharply as the batch grows.
// ns/row is wall-clock per produced row, reported as a custom metric.
func BenchmarkExecBatch(b *testing.B) {
	const rows = 4000
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sys := quickSys()
			d := Open(sys)
			sys.Run(func(h *biscuit.Host) {
				tab := loadFixture(b, h, d, rows, 50)
				pred := EqS(tab.Sch, "note", "TARGETKEY")
				b.ReportAllocs()
				b.ResetTimer()
				total := 0
				for i := 0; i < b.N; i++ {
					ex := NewExec(h, d)
					ex.BatchSize = batch
					n, err := drainScan(ex, tab, pred)
					if err != nil {
						b.Fatal(err)
					}
					total += n
				}
				b.StopTimer()
				if total > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/row")
				}
			})
		})
	}
}

// BenchmarkRepeatedQuery runs a serving shard query over and over on one
// Database, each time on a fresh Exec, as serve does: the partial
// aggregate of a sharded sum and count grouped by note, over a Conv scan
// of every row or an NDP scan of the TARGETKEY rows. B/op and allocs/op
// are what one query allocates once the Database's scratch holds what the
// previous query gave back — the batches and, for Conv, the read-ahead
// chunk. What is left on the host is the query's own: the decoded string
// cells (one string a batch) and the groups. The NDP case's bulk is the
// device's page filter, device memory the host's scratch never holds.
func BenchmarkRepeatedQuery(b *testing.B) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(b, h, d, 20000, 50)
		sch := tab.Sch
		plan, err := NewShardedAggPlan([]Expr{C(sch, "note")}, []string{"note"},
			[]Agg{{F: Sum, Arg: C(sch, "price"), Name: "sum_price"}, {F: CountAgg, Name: "n"}})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			scan func(ex *Exec) Iterator
		}{
			{"conv", func(ex *Exec) Iterator { return ex.NewConvScan(tab, Cmp{GE, C(sch, "id"), Lit(Int(0))}) }},
			{"ndp", func(ex *Exec) Iterator {
				return ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(sch, "note", "TARGETKEY"))
			}},
		} {
			b.Run(c.name, func(b *testing.B) {
				query := func() {
					ex := NewExec(h, d)
					if rows, err := Collect(plan.ShardOp(ex, c.scan(ex))); err != nil || len(rows) == 0 {
						b.Fatalf("%d groups, err %v", len(rows), err)
					}
				}
				query() // the first NDP scan loads the device module
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					query()
				}
			})
		}
	})
}

// countRows runs an iterator to completion without retaining rows, so
// benchmarks measure executor cost rather than result storage.
func countRows(it Iterator) (int, error) {
	total := 0
	err := drain(it, execOf(it), func(_ *RowBatch, n int) { total += n })
	return total, err
}

// drainScan drains a filtered Conv scan and pays its pending cost.
func drainScan(ex *Exec, tab *Table, pred Expr) (int, error) {
	n, err := countRows(ex.NewConvScan(tab, pred))
	ex.FlushCost()
	return n, err
}

// BenchmarkBNLJoin shows growth, not one size: a full 512-row block
// probed by 1 k, 10 k and 100 k inner rows with one partner each. The
// number to read is ns/inner-row, which must stay flat across the
// 10×-spaced sizes: a probe costs one bucket lookup whatever the block
// holds, where pairing every inner row with every block row cost 512
// concatenations and evaluations. The lineitem case fills its block with
// sixteen-column rows of which the plan reads two; its B/op is what the
// join buffer keeps of them.
func BenchmarkBNLJoin(b *testing.B) {
	for _, c := range []struct {
		inner    int
		lineitem bool
	}{{1_000, false}, {10_000, false}, {100_000, false}, {10_000, true}} {
		name := fmt.Sprintf("inner=%dk", c.inner/1000)
		if c.lineitem {
			name = "lineitem-2of16/" + name
		}
		inner := c.inner
		b.Run(name, func(b *testing.B) {
			sys := quickSys()
			d := Open(sys)
			sys.Run(func(h *biscuit.Host) {
				j := bnlProbe(h, d, 512, inner, c.lineitem)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n, err := countRows(j); err != nil || n != inner {
						b.Fatalf("%d rows, err %v, want %d", n, err, inner)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inner), "ns/inner-row")
			})
		})
	}
}

// BenchmarkHashJoinChain runs a Q7-shaped plan: lineitem probes five
// stacked HashJoins — supplier, orders, customer and the supplier's and
// the customer's nation — all over MemScans, so what is timed is the
// joins alone. Every lineitem row finds exactly one partner at each
// level. B/op and allocs/op are the numbers to read: output rows come
// from slabs each join recycles, so neither grows with the rows that
// flow through the chain, only with the build sides.
func BenchmarkHashJoinChain(b *testing.B) {
	const nations, suppliers, customers, orders, lineitems = 25, 100, 1500, 15000, 60000
	table := func(n int, cols []string, row func(i int) Row) (*Schema, *MemScan) {
		var cs []Column
		for _, c := range cols {
			cs = append(cs, Column{c, TInt})
		}
		sch := NewSchema(cs...)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		return sch, NewMemScan(sch, rows)
	}
	nation := func(prefix string) (*Schema, *MemScan) {
		return table(nations, []string{prefix + "_nationkey", prefix + "_regionkey"}, func(i int) Row { return Row{Int(int64(i)), Int(int64(i % 5))} })
	}
	lSch, lineitem := table(lineitems, []string{"l_orderkey", "l_suppkey", "l_price"}, func(i int) Row {
		return Row{Int(int64(i % orders)), Int(int64(i % suppliers)), Dec(int64(i))}
	})
	sSch, supplier := table(suppliers, []string{"s_suppkey", "s_nationkey"}, func(i int) Row { return Row{Int(int64(i)), Int(int64(i % nations))} })
	oSch, order := table(orders, []string{"o_orderkey", "o_custkey"}, func(i int) Row { return Row{Int(int64(i)), Int(int64(i % customers))} })
	cSch, customer := table(customers, []string{"c_custkey", "c_nationkey"}, func(i int) Row { return Row{Int(int64(i)), Int(int64(i * 7 % nations))} })
	n1Sch, n1 := nation("n1")
	n2Sch, n2 := nation("n2")

	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		var it Iterator = lineitem
		sch := lSch
		for _, level := range []struct {
			right             Iterator
			rSch              *Schema
			leftKey, rightKey string
		}{
			{supplier, sSch, "l_suppkey", "s_suppkey"},
			{order, oSch, "l_orderkey", "o_orderkey"},
			{customer, cSch, "o_custkey", "c_custkey"},
			{n1, n1Sch, "s_nationkey", "n1_nationkey"},
			{n2, n2Sch, "c_nationkey", "n2_nationkey"},
		} {
			it = &HashJoin{Ex: ex, Left: it, Right: level.right, LeftKey: C(sch, level.leftKey), RightKey: C(level.rSch, level.rightKey)}
			sch = sch.Concat(level.rSch)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := countRows(it); err != nil || n != lineitems {
				b.Fatalf("%d rows, err %v, want %d", n, err, lineitems)
			}
		}
		b.StopTimer()
		ex.FlushCost()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lineitems), "ns/row")
	})
}

// BenchmarkHashJoinBuild runs Q21's EXISTS: a semi join over a 60 000-row
// build side with all sixteen of lineitem's columns, probed by 6 000 rows.
// The join reads l_orderkey and l_suppkey and keeps only the latter, so
// B/op is what reads from this benchmark and not from HashJoinChain's
// two-column tables: a build row costs one cell and its index entry, not
// sixteen cells and a Row header. ns/build-row times build and probe.
func BenchmarkHashJoinBuild(b *testing.B) {
	const build, probe = 60_000, 6_000
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		j, want := q21Semi(ex, build, probe)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := countRows(j); err != nil || n != want {
				b.Fatalf("%d rows, err %v, want %d", n, err, want)
			}
		}
		b.StopTimer()
		ex.FlushCost()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*build), "ns/build-row")
	})
}

// TestBatchExecAllocAmortization pins the PR's acceptance criterion:
// the default batch size allocates at least 2x less per scan than a
// degenerate one-row batch. (In practice the gap is far larger — one
// string-arena allocation per batch instead of per row.)
func TestBatchExecAllocAmortization(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 20000, 50)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		measure := func(batch int) float64 {
			return testing.AllocsPerRun(3, func() {
				ex := NewExec(h, d)
				ex.BatchSize = batch
				if _, err := drainScan(ex, tab, pred); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, def := measure(1), measure(0)
		t.Logf("allocs per scan: batch=1 %.0f, batch=default %.0f", one, def)
		if def <= 0 || one < 2*def {
			t.Fatalf("default batch must allocate >=2x less than batch=1: got %.0f vs %.0f", one, def)
		}

		// The device scan row-filters every matched page while the matcher
		// lends it, one row at a time in a one-row stage. Two scans that
		// differ only in whether the matcher lets the pages through — a key
		// on every page against a key on none, under a predicate no row
		// passes, so nothing is kept or shipped either way — differ by the
		// cost of a matched page and nothing else.
		device := func(key string, pred Expr) (float64, float64) {
			return allocsAndBytesPerRun(3, func() {
				ex := NewExec(h, d)
				if rows, err := Collect(ex.NewNDPScan(tab, []string{key}, pred)); err != nil || len(rows) != 0 {
					t.Fatalf("device scan for %q: %d rows, err %v", key, len(rows), err)
				}
			})
		}
		perPage := func(pred Expr) (float64, float64) {
			a1, b1 := device("padding-text", pred)
			a0, b0 := device("NOSUCHKEY", pred)
			return (a1 - a0) / float64(tab.Pages), (b1 - b0) / float64(tab.Pages)
		}
		if tab.Pages < 8 {
			t.Fatalf("fixture has %d pages, want at least 8", tab.Pages)
		}
		// A predicate over a string cell costs a matched page the one
		// string its cells slice: 1. The hit list's and the kept buffer's
		// growth are amortized over the pages — allow 1 more. A copy of the
		// page, or a string per row, would break it.
		allocs, _ := perPage(EqS(tab.Sch, "note", "NOSUCHKEY"))
		const bound = 1 + 1
		t.Logf("device scan, string predicate: %.2f allocs per matched page over %d pages (bound %d)", allocs, tab.Pages, bound)
		if allocs <= 0 || allocs > bound {
			t.Fatalf("device scan allocates %.2f per matched page over %d pages, want (0, %d]", allocs, tab.Pages, bound)
		}
		// A predicate that reads no string cell costs a matched page no
		// bytes of its own: what is left is the hit list's growth. A copy
		// of the page would cost PageSize.
		_, size := perPage(Cmp{LT, C(tab.Sch, "id"), Lit(Int(0))})
		t.Logf("device scan, int predicate: %.0f bytes per matched page of %d", size, tab.PageSize)
		if size >= float64(tab.PageSize)/4 {
			t.Fatalf("device scan allocates %.0f bytes per matched page, want < PageSize/4 = %d", size, tab.PageSize/4)
		}
		// A predicate that keeps every row: each survivor is copied once
		// out of the lent page and once into its packet, both at their
		// exact sizes, so the device side allocates twice what it ships and
		// a size-class rounding per page. The host end reads the packets
		// and decodes none of them, and the keep-nothing scan is the
		// baseline, so what is left is the device's.
		ship := func(pred Expr) (size, shipped float64) {
			_, size = allocsAndBytesPerRun(3, func() {
				s := NewExec(h, d).NewNDPScan(tab, []string{"padding-text"}, pred)
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				shipped = 0
				for {
					pkt, ok := s.port.GetPacket()
					if !ok {
						break
					}
					shipped += float64(pkt.Len())
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
			return size, shipped
		}
		all, shipped := ship(Cmp{GE, C(tab.Sch, "id"), Lit(Int(0))})
		none, _ := ship(Cmp{LT, C(tab.Sch, "id"), Lit(Int(0))})
		const rounding = 1 << 10
		keepBound := 2*shipped + rounding*float64(tab.Pages)
		t.Logf("device scan, every row kept: %.0f bytes for %.0f shipped over %d pages (bound %.0f)", all-none, shipped, tab.Pages, keepBound)
		if shipped < float64(tab.Pages)*float64(tab.PageSize)/2 || all-none > keepBound {
			t.Fatalf("device scan keeping every row allocates %.0f bytes for %.0f shipped over %d pages, want at most 2 x shipped + %d a page = %.0f", all-none, shipped, tab.Pages, rounding, keepBound)
		}
	})
}

// allocsAndBytesPerRun is testing.AllocsPerRun that also reports the
// bytes allocated: the mean over runs of f, after one warm-up call, with
// GOMAXPROCS at 1.
func allocsAndBytesPerRun(runs int, f func()) (allocs, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkDecodeRow times the one row decoder over 1024 lineitem-shaped
// rows under four masks: every column — the full decode DecodePage and
// ConvScan without a mask run, which must not pay for masks existing —
// four columns as Q6 reads them, the three dates as Q12's predicate
// reads them, and the last column alone, where every cell before it is
// walked. ns/row is the number to read.
func BenchmarkDecodeRow(b *testing.B) {
	const rows = 1024
	sch, row := lineitemShaped()
	var buf []byte
	for i := 0; i < rows; i++ {
		buf = EncodeRow(buf, sch, row(i))
	}
	mask := func(names ...string) []bool {
		need := make([]bool, len(sch.Cols))
		for _, n := range names {
			need[sch.Col(n)] = true
		}
		return need
	}
	for _, m := range []struct {
		name string
		need []bool
	}{
		{"all", nil},
		{"4of16", mask("quantity", "extendedprice", "discount", "shipdate")},
		{"dates", mask("shipdate", "commitdate", "receiptdate")},
		{"last", mask("comment")},
	} {
		b.Run("cols="+m.name, func(b *testing.B) {
			ops := sch.decodeOps(m.need)
			batch := NewRowBatch(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for at := 0; at < len(buf); {
					k, err := batch.decodeRow(buf[at:], "", sch, ops)
					if err != nil {
						b.Fatal(err)
					}
					at += k
				}
				batch.FinishStrings()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkDeviceFilter times the device scan's row filter over 16 KiB
// pages of lineitem-shaped rows under Q6's predicate (a shipdate year,
// a discount band, quantity < 24), which reads four cells and no string.
// One op is one matched page, so ns/op and B/op are per page; B/op is
// what a matched page costs the Go process: the one exact copy of the
// rows it keeps.
func BenchmarkDeviceFilter(b *testing.B) {
	sch, row := lineitemShaped()
	pb := NewPageBuilder(16<<10, sch)
	var pages [][]byte
	for i := 0; len(pages) < 16; i++ {
		if !pb.Add(row(i)) {
			pages = append(pages, bytes.Clone(pb.Take()))
			pb.Add(row(i))
		}
	}
	q6 := AndOf(
		RangeD(sch, "shipdate", "1994-01-01", "1995-01-01"),
		Between{X: C(sch, "discount"), Lo: Dec(5), Hi: Dec(7)},
		Cmp{LT, C(sch, "quantity"), Lit(Int(24))})
	f := newPageFilter(NDPScanArgs{Sch: sch, Pred: q6})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := f.page(0, pages[i%len(pages)]); h.err != nil {
			b.Fatal(h.err)
		}
	}
}

// lineitemShaped is TPC-H lineitem's 16 column types, in its order, and a
// row of cells of its sizes for each i.
func lineitemShaped() (*Schema, func(i int) Row) {
	sch := NewSchema(
		Column{"orderkey", TInt}, Column{"partkey", TInt}, Column{"suppkey", TInt}, Column{"linenumber", TInt},
		Column{"quantity", TInt}, Column{"extendedprice", TDecimal}, Column{"discount", TDecimal}, Column{"tax", TDecimal},
		Column{"returnflag", TString}, Column{"linestatus", TString},
		Column{"shipdate", TDate}, Column{"commitdate", TDate}, Column{"receiptdate", TDate},
		Column{"shipinstruct", TString}, Column{"shipmode", TString}, Column{"comment", TString})
	return sch, func(i int) Row {
		day := DateYMD(1992, 1, 1+i%2500)
		return Row{
			Int(int64(i * 4)), Int(int64(i * 7919 % 200000)), Int(int64(i % 10000)), Int(int64(1 + i%7)),
			Int(int64(1 + i%50)), Dec(int64(90000 + i*37%10000000)), Dec(int64(i % 11)), Dec(int64(i % 9)),
			Str("NRA"[i%3 : i%3+1]), Str("OF"[i%2 : i%2+1]),
			day, Value{T: TDate, I: day.I + 30}, Value{T: TDate, I: day.I + 41},
			Str("DELIVER IN PERSON"), Str("TRUCK"), Str("carefully final deposits detect slyly agai"[:10+i%33])}
	}
}
