package db

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"biscuit"
)

// RowBatch mechanics: selection-vector editing, arena-backed decode,
// and the operator edge cases batching introduces (LIMIT cutting a
// batch mid-way, sorts spanning batches, fault fallback resuming
// mid-batch).

func intRows(vals ...int64) []Row {
	out := make([]Row, len(vals))
	for i, v := range vals {
		out[i] = Row{Int(v)}
	}
	return out
}

func TestRowBatchFilterKeepDrop(t *testing.T) {
	b := NewRowBatch(8)
	for i := int64(0); i < 8; i++ {
		b.AppendRow(Row{Int(i)})
	}
	if b.Len() != 8 || !b.Full() {
		t.Fatalf("len=%d full=%v", b.Len(), b.Full())
	}
	// Filter to even values, then keep the first.
	if live := b.Filter(func(r Row) bool { return r[0].I%2 == 0 }); live != 4 {
		t.Fatalf("filter: live=%d", live)
	}
	b.Keep(1)
	if b.Len() != 1 || b.Row(0)[0].I != 0 {
		t.Fatalf("after keep: len=%d first=%v", b.Len(), b.Row(0))
	}
	// Keep on an unfiltered batch materializes the selection.
	b.Reset()
	b.AppendRow(Row{Int(10)})
	b.AppendRow(Row{Int(11)})
	b.AppendRow(Row{Int(12)})
	b.Keep(2)
	if b.Len() != 2 || b.Row(1)[0].I != 11 {
		t.Fatalf("keep on unselected batch: len=%d last=%v", b.Len(), b.Row(1))
	}
}

func TestEmitRowsBatchBoundaries(t *testing.T) {
	// The one emitter at every boundary shape: full batches of cap rows,
	// then the remainder, then 0; rows in order; the cursor ends at
	// len(rows); the slice it walked is left as it was.
	const bcap = 4
	sch := NewSchema(Column{"v", TInt})
	for _, n := range []int{0, bcap - 1, bcap, bcap + 1, 3*bcap + 2} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(100 + i)
		}
		rows := intRows(vals...)
		b := NewRowBatch(bcap)
		at, next := 0, 0
		for {
			want := min(bcap, n-next)
			got := emitRows(b, rows, &at)
			if got != want || b.Len() != want {
				t.Fatalf("n=%d at row %d: batch of %d (Len %d), want %d", n, next, got, b.Len(), want)
			}
			if got == 0 {
				break
			}
			for i := 0; i < got; i++ {
				if v := b.Row(i)[0].I; v != vals[next+i] {
					t.Fatalf("n=%d: row %d = %d, want %d", n, next+i, v, vals[next+i])
				}
			}
			next += got
			if at != next {
				t.Fatalf("n=%d: cursor %d after %d rows", n, at, next)
			}
		}
		if at != n || next != n {
			t.Fatalf("n=%d: drained %d rows, cursor %d", n, next, at)
		}
		if emitRows(b, rows, &at) != 0 || at != n {
			t.Fatalf("n=%d: a drained run emitted again (cursor %d)", n, at)
		}
		if len(rows) != n {
			t.Fatalf("n=%d: emitter consumed its slice: len %d", n, len(rows))
		}

		// MemScan rewinds over the same caller-owned rows.
		m := NewMemScan(sch, rows)
		for pass := 0; pass < 2; pass++ {
			if err := m.Open(); err != nil {
				t.Fatal(err)
			}
			var got []int64
			for k, _ := m.NextBatch(b); k > 0; k, _ = m.NextBatch(b) {
				for i := 0; i < k; i++ {
					got = append(got, b.Row(i)[0].I)
				}
			}
			if !slices.Equal(got, vals) {
				t.Fatalf("n=%d pass %d: MemScan gave %v, want %v", n, pass, got, vals)
			}
		}
	}
}

func TestRowBatchDecodeRoundTrip(t *testing.T) {
	sch := testSchema()
	var buf []byte
	want := make([]Row, 5)
	for i := range want {
		want[i] = sampleRow(i)
		buf = EncodeRow(buf, sch, want[i])
	}
	b := NewRowBatch(8)
	for len(buf) > 0 {
		k, err := b.decodeRow(buf, sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[k:]
	}
	b.FinishStrings()
	if b.Len() != len(want) {
		t.Fatalf("decoded %d rows, want %d", b.Len(), len(want))
	}
	for i := range want {
		got := b.Row(i)
		for c := range want[i] {
			if !Equal(got[c], want[i][c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[c], want[i][c])
			}
		}
	}
}

func TestRowBatchDecodeErrorRollsBack(t *testing.T) {
	sch := NewSchema(Column{"s", TString})
	b := NewRowBatch(4)
	good := EncodeRow(nil, sch, Row{Str("hello")})
	if _, err := b.decodeRow(good, sch, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.decodeRow(good[:2], sch, nil); err == nil {
		t.Fatal("truncated row must error")
	}
	b.FinishStrings()
	if b.Len() != 1 || b.Row(0)[0].S != "hello" {
		t.Fatalf("batch corrupted by failed decode: len=%d row=%v", b.Len(), b.Row(0))
	}
}

func TestLimitOpCutsMidBatch(t *testing.T) {
	// 20 input rows, batches of 7, LIMIT 10: batches of 7 and 3 (cut
	// via the selection vector), then EOF.
	l := &LimitOp{In: NewMemScan(NewSchema(Column{"v", TInt}), intRows(
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)), N: 10}
	if err := l.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewRowBatch(7)
	var got []int64
	for {
		n, err := l.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			got = append(got, b.Row(i)[0].I)
		}
	}
	if len(got) != 10 {
		t.Fatalf("limit emitted %d rows, want 10", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

func TestSortOpSpillsAcrossBatches(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 500, 50)
		ex := NewExec(h, d)
		ex.BatchSize = 7 // sorted output spans many batches
		s := &SortOp{Ex: ex, In: ex.NewConvScan(tab, nil),
			Keys: []SortKey{{E: C(tab.Sch, "price"), Desc: true}, {E: C(tab.Sch, "id")}}}
		rows, err := Collect(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 500 {
			t.Fatalf("sorted %d rows, want 500", len(rows))
		}
		p, id := tab.Sch.Col("price"), tab.Sch.Col("id")
		for i := 1; i < len(rows); i++ {
			if rows[i][p].I > rows[i-1][p].I {
				t.Fatalf("row %d out of order: %v after %v", i, rows[i], rows[i-1])
			}
			if rows[i][p].I == rows[i-1][p].I && rows[i][id].I < rows[i-1][id].I {
				t.Fatalf("tie at row %d broken wrongly", i)
			}
		}
	})
}

// ndpFixtureScanAt is ndpFixtureScan with an explicit pipeline batch
// size (see fault_test.go).
func ndpFixtureScanAt(t *testing.T, sys *biscuit.System, batch int) ([]Row, *Exec) {
	t.Helper()
	d := Open(sys)
	var rows []Row
	var ex *Exec
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex = NewExec(h, d)
		ex.BatchSize = batch
		var err error
		rows, err = Collect(ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY")))
		if err != nil {
			t.Fatalf("scan must survive the fault plan: %v", err)
		}
	})
	return rows, ex
}

// TestNDPScanFaultFallbackMidBatchResume runs the fallback scenario of
// fault_test.go at batch sizes that force the already-emitted row count
// to land mid-way through a fallback batch, exercising the stashed-rows
// batch-aligned resume.
func TestNDPScanFaultFallbackMidBatchResume(t *testing.T) {
	want, _ := ndpFixtureScanAt(t, quickSys(), 0)
	if len(want) == 0 {
		t.Fatal("fixture scan found no rows; test exercises nothing")
	}
	for _, batch := range []int{1, 3, 7, 0} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			got, ex := ndpFixtureScanAt(t, faultSys(scanPlan), batch)
			sameRows(t, got, want)
			if ex.St.NDPFallbacks < 1 {
				t.Fatalf("NDPFallbacks=%d; the plan never killed the device scan", ex.St.NDPFallbacks)
			}
		})
	}
}

// TestScanCountersMirroredOnPlatformRegistry pins the satellite
// requirement that db.Stats scan counters land on the platform
// stats.Counters registry.
func TestScanCountersMirroredOnPlatformRegistry(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 500, 50)
		ex := NewExec(h, d)
		if _, err := Collect(ex.NewConvScan(tab, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(ex.NewNDPScan(tab, []string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY"))); err != nil {
			t.Fatal(err)
		}
		ctrs := sys.Plat.Ctrs
		if n := ctrs.Get("db.scan.conv"); n != ex.St.ConvScans || n < 1 {
			t.Fatalf("db.scan.conv=%d, St.ConvScans=%d", n, ex.St.ConvScans)
		}
		if n := ctrs.Get("db.scan.ndp"); n != ex.St.NDPScans || n < 1 {
			t.Fatalf("db.scan.ndp=%d, St.NDPScans=%d", n, ex.St.NDPScans)
		}
		if n := ctrs.Get("db.pages.link"); n != ex.St.PagesOverLink || n < 1 {
			t.Fatalf("db.pages.link=%d, St.PagesOverLink=%d", n, ex.St.PagesOverLink)
		}
	})
}

// TestSelectiveScanAllocation: a batch's value arena grows with the rows
// it is handed, so a scan that returns three rows of a lineitem-wide
// schema pays for a few rows — not for a full 1024-row batch, 512 KiB at
// 16 columns — whether the rows come over the link from the device
// (NDP) or are decoded from one page on the host (Conv).
func TestSelectiveScanAllocation(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		cols := []Column{{"id", TInt}, {"note", TString}}
		for i := len(cols); i < 16; i++ {
			cols = append(cols, Column{fmt.Sprintf("c%d", i), TInt})
		}
		sch := NewSchema(cols...)
		var rows []Row
		for i := range 12 {
			r := Row{Int(int64(i)), Str("padding")}
			if i%4 == 3 {
				r[1] = Str("TARGETKEY")
			}
			for c := len(r); c < len(cols); c++ {
				r = append(r, Int(int64(i*c)))
			}
			rows = append(rows, r)
		}
		tab := storeTable(t, h, d, "wide", sch, rows)
		if tab.Pages != 1 {
			t.Fatalf("table spans %d pages, want 1", tab.Pages)
		}
		pred := EqS(sch, "note", "TARGETKEY")
		scans := []struct {
			name string
			scan func(ex *Exec) Iterator
		}{
			{"one-page conv", func(ex *Exec) Iterator { return ex.NewConvScan(tab, pred) }},
			{"ndp", func(ex *Exec) Iterator { return ex.NewNDPScan(tab, []string{"TARGETKEY"}, pred) }},
		}
		for _, s := range scans {
			collect := func() {
				if got, err := Collect(s.scan(NewExec(h, d))); err != nil || len(got) != 3 {
					t.Fatalf("%s: %d rows, err %v, want 3", s.name, len(got), err)
				}
			}
			collect() // the first NDP scan loads the device module
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			collect()
			runtime.ReadMemStats(&after)
			const bound = 64 << 10
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: %d bytes allocated for 3 rows (bound %d)", s.name, alloc, bound)
			if alloc >= bound {
				t.Fatalf("%s: %d bytes allocated for 3 rows, want < %d", s.name, alloc, bound)
			}
		}
	})
}
