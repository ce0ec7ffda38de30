package db

import (
	"errors"
	"fmt"
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

// drain runs an iterator to completion without retaining rows, so
// benchmarks measure executor cost rather than result storage.
func drain(it Iterator) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	rb := NewRowBatch(batchCapOf(it))
	total := 0
	for {
		n, err := it.NextBatch(rb)
		if err != nil || n == 0 {
			return total, errors.Join(err, it.Close())
		}
		total += n
	}
}

// drainScan drains a filtered Conv scan and pays its pending cost.
func drainScan(ex *Exec, tab *Table, pred Expr) (int, error) {
	n, err := drain(ex.NewConvScan(tab, pred))
	ex.FlushCost()
	return n, err
}

// BenchmarkBNLJoin shows growth, not one size: a full 512-row block
// probed by 1 k, 10 k and 100 k inner rows with one partner each. The
// number to read is ns/inner-row, which must stay flat across the
// 10×-spaced sizes: a probe costs one bucket lookup whatever the block
// holds, where pairing every inner row with every block row cost 512
// concatenations and evaluations.
func BenchmarkBNLJoin(b *testing.B) {
	for _, inner := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("inner=%dk", inner/1000), func(b *testing.B) {
			sys := quickSys()
			d := Open(sys)
			sys.Run(func(h *biscuit.Host) {
				j := bnlProbe(h, d, inner)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n, err := drain(j); err != nil || n != inner {
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
			if n, err := drain(it); err != nil || n != lineitems {
				b.Fatalf("%d rows, err %v, want %d", n, err, lineitems)
			}
		}
		b.StopTimer()
		ex.FlushCost()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lineitems), "ns/row")
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

		// The device scan decodes every matched page into one staging
		// batch it owns for its lifetime. Two scans that differ only in
		// whether the matcher lets the pages through — a key on every page
		// against a key on none, under a predicate no row passes, so
		// nothing is encoded or shipped either way — differ by the cost of
		// a matched page and nothing else.
		none := EqS(tab.Sch, "note", "NOSUCHKEY")
		device := func(key string) float64 {
			return testing.AllocsPerRun(3, func() {
				ex := NewExec(h, d)
				if rows, err := Collect(ex.NewNDPScan(tab, []string{key}, none)); err != nil || len(rows) != 0 {
					t.Fatalf("device scan for %q: %d rows, err %v", key, len(rows), err)
				}
			})
		}
		perPage := (device("padding-text") - device("NOSUCHKEY")) / float64(tab.Pages)
		// A matched page costs its buffered copy (the matcher lends the
		// media's page only for the callback) and FinishStrings' one string
		// for the page's cells: 2. The sorted hit list's growth and the
		// staging arenas' first few sizings are amortized over the pages —
		// allow 1 more. A batch per page adds at least its row slab, value
		// arena, byte arena and fixup list: 4 on top of the 2.
		const bound = 2 + 1
		t.Logf("device scan: %.2f allocs per matched page over %d pages (bound %d)", perPage, tab.Pages, bound)
		if tab.Pages < 8 || perPage <= 0 || perPage > bound {
			t.Fatalf("device scan allocates %.2f per matched page over %d pages, want (0, %d]", perPage, tab.Pages, bound)
		}
	})
}

// BenchmarkDecodeRow times the one row decoder over 1024 lineitem-shaped
// rows (TPC-H lineitem's 16 column types, in its order, and cells of its
// sizes) under three masks: every column — the full decode DecodePage and
// the device scan run, which must not pay for masks existing — four
// columns as Q6 reads them, and the last column alone, where every cell
// before it is walked. ns/row is the number to read.
func BenchmarkDecodeRow(b *testing.B) {
	sch := NewSchema(
		Column{"orderkey", TInt}, Column{"partkey", TInt}, Column{"suppkey", TInt}, Column{"linenumber", TInt},
		Column{"quantity", TInt}, Column{"extendedprice", TDecimal}, Column{"discount", TDecimal}, Column{"tax", TDecimal},
		Column{"returnflag", TString}, Column{"linestatus", TString},
		Column{"shipdate", TDate}, Column{"commitdate", TDate}, Column{"receiptdate", TDate},
		Column{"shipinstruct", TString}, Column{"shipmode", TString}, Column{"comment", TString})
	const rows = 1024
	var buf []byte
	for i := 0; i < rows; i++ {
		day := DateYMD(1992, 1, 1+i%2500)
		buf = EncodeRow(buf, sch, Row{
			Int(int64(i * 4)), Int(int64(i * 7919 % 200000)), Int(int64(i % 10000)), Int(int64(1 + i%7)),
			Int(int64(1 + i%50)), Dec(int64(90000 + i*37%10000000)), Dec(int64(i % 11)), Dec(int64(i % 9)),
			Str("NRA"[i%3 : i%3+1]), Str("OF"[i%2 : i%2+1]),
			day, Value{T: TDate, I: day.I + 30}, Value{T: TDate, I: day.I + 41},
			Str("DELIVER IN PERSON"), Str("TRUCK"), Str("carefully final deposits detect slyly agai"[:10+i%33])})
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
					k, err := batch.decodeRow(buf[at:], sch, ops)
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
