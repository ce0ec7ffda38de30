package db

import (
	"errors"
	"testing"

	"biscuit"
	"biscuit/internal/fault"
)

func TestNDPAggMatchesHostAggregation(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 50000, 40)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		groupBy := []Expr{C(tab.Sch, "ship")}
		aggs := []Agg{
			{F: Sum, Arg: C(tab.Sch, "price"), Name: "total"},
			{F: CountAgg, Name: "n"},
			{F: Max, Arg: C(tab.Sch, "id"), Name: "maxid"},
		}

		// Host-side reference: Conv scan + host aggregation.
		exH := NewExec(h, d)
		ref := &HashAggOp{Ex: exH, In: exH.NewConvScan(tab, pred),
			GroupBy: groupBy, GroupNms: []string{"g0"}, Aggs: aggs}
		want, err := Collect(ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("reference aggregation empty")
		}

		// Device-side aggregation.
		exD := NewExec(h, d)
		got, err := Collect(exD.NewNDPAggScan(tab, []string{"TARGETKEY"}, pred, groupBy, aggs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("groups: device %d vs host %d", len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !Equal(got[i][c], want[i][c]) {
					t.Fatalf("group %d col %d: device %v vs host %v", i, c, got[i][c], want[i][c])
				}
			}
		}
		// Aggregation pushdown ships O(groups): link traffic must be far
		// below even the row-shipping NDP scan.
		exR := NewExec(h, d)
		if _, err := Collect(exR.NewNDPScan(tab, []string{"TARGETKEY"}, pred)); err != nil {
			t.Fatal(err)
		}
		t.Logf("link pages: conv=%d ndp-rows=%d ndp-agg=%d", exH.St.PagesOverLink, exR.St.PagesOverLink, exD.St.PagesOverLink)
		if exD.St.PagesOverLink > exR.St.PagesOverLink {
			t.Fatalf("aggregate pushdown moved more data (%d) than row shipping (%d)",
				exD.St.PagesOverLink, exR.St.PagesOverLink)
		}
	})
}

func TestNDPAggScalar(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 20000, 30)
		pred := EqS(tab.Sch, "note", "TARGETKEY")
		aggs := []Agg{{F: CountAgg, Name: "n"}, {F: Sum, Arg: C(tab.Sch, "price"), Name: "sum"}}

		exH := NewExec(h, d)
		want, err := Collect(ScalarAgg(exH, exH.NewConvScan(tab, pred), aggs...))
		if err != nil {
			t.Fatal(err)
		}
		exD := NewExec(h, d)
		got, err := Collect(exD.NewNDPAggScan(tab, []string{"TARGETKEY"}, pred, nil, aggs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !Equal(got[0][0], want[0][0]) || !Equal(got[0][1], want[0][1]) {
			t.Fatalf("device %v vs host %v", got, want)
		}
	})
}

func TestNDPAggRejectsBadKeys(t *testing.T) {
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex := NewExec(h, d)
		_, err := Collect(ex.NewNDPAggScan(tab, []string{"a", "b", "c", "d"}, nil, nil,
			[]Agg{{F: CountAgg}}))
		if err == nil {
			t.Fatal("4 keys must be rejected by the hardware limit")
		}
	})
}

// sameCells compares rows by cell payload (I and S), ignoring the type
// tag: over empty input the host's scalar row carries untyped zeroes
// (Int(0) for a decimal Sum) where the device's is typed for the wire.
func sameCells(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows %v, want %d rows %v", what, len(got), got, len(want), want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cells, want %d", what, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c].I != want[i][c].I || got[i][c].S != want[i][c].S {
				t.Fatalf("%s: row %d col %d = %v, want %v", what, i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestNDPAggScalarOverNoRowsYieldsOneRow(t *testing.T) {
	// Regression: a scalar device aggregate over zero matching rows used
	// to return no row at all, where the host path returns one (SQL:
	// scalar aggregates yield a row even over empty input). The row must
	// also encode under the wire schema: a decimal Sum over nothing is
	// Dec(0), not the untyped zero Value.
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 5000, 40)
		pred := EqS(tab.Sch, "note", "NOSUCHKEY")
		aggs := []Agg{{F: CountAgg}, {F: Sum, Arg: C(tab.Sch, "price")}, {F: Min, Arg: C(tab.Sch, "ship")}}

		exH := NewExec(h, d)
		want, err := Collect(ScalarAgg(exH, exH.NewConvScan(tab, pred), aggs...))
		if err != nil {
			t.Fatal(err)
		}
		exD := NewExec(h, d)
		scan := exD.NewNDPAggScan(tab, []string{"NOSUCHKEY"}, pred, nil, aggs)
		got, err := Collect(scan)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 {
			t.Fatalf("host scalar aggregate over no rows gave %v", want)
		}
		sameCells(t, "device vs host", got, want)
		for c, col := range scan.Schema().Cols {
			if got[0][c].T != col.T {
				t.Fatalf("col %s: device cell is %v, wire schema says %v", col.Name, got[0][c].T, col.T)
			}
		}
		if got[0][1].T != TDecimal {
			t.Fatalf("sum(price) over no rows must be Dec(0), got type %v", got[0][1].T)
		}
		// Unnamed aggregates are named alike on both sides.
		host := ScalarAgg(exH, nil, aggs...).Schema()
		for c, col := range scan.Schema().Cols {
			if col.Name != host.Cols[c].Name {
				t.Fatalf("col %d: device names it %q, host %q", c, col.Name, host.Cols[c].Name)
			}
		}
	})
}

func TestNDPAggEquivalentToHostAggOverEitherScan(t *testing.T) {
	// Aggregation as a stage of the device scan ≡ host aggregation over
	// the row-shipping device scan ≡ host aggregation over the Conv
	// scan, row for row: grouped, scalar, and with nothing matching.
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 30000, 40)
		aggs := []Agg{
			{F: CountAgg, Name: "n"},
			{F: Sum, Arg: C(tab.Sch, "price"), Name: "total"},
			{F: Avg, Arg: C(tab.Sch, "price"), Name: "mean"},
			{F: Min, Arg: C(tab.Sch, "id"), Name: "lo"},
			{F: Max, Arg: C(tab.Sch, "id"), Name: "hi"},
		}
		// Min/Max over the string column, and a string group key: every
		// page matches, so the device's group table carries string cells
		// from the first page across every later Reset of the scan's
		// staging batch — a retained value that aliased the batch would
		// come back as another page's bytes.
		note := C(tab.Sch, "note")
		strAggs := append(aggs[:len(aggs):len(aggs)],
			Agg{F: Min, Arg: note, Name: "first_note"}, Agg{F: Max, Arg: note, Name: "last_note"})
		if tab.Pages < 8 {
			t.Fatalf("fixture spans %d pages; the staging batch must be reused across at least 8", tab.Pages)
		}
		byShip := []Expr{C(tab.Sch, "ship")}
		byID := []Expr{C(tab.Sch, "id")}
		type scan struct {
			keys []string
			pred Expr
		}
		hit := scan{[]string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY")}
		miss := scan{[]string{"NOSUCHKEY"}, EqS(tab.Sch, "note", "NOSUCHKEY")}
		every := scan{[]string{"TARGETKEY", "padding-text"},
			In{X: note, Vals: []Value{Str("TARGETKEY"), Str("padding-text-xyz")}}}
		cases := []struct {
			name string
			scan
			groupBy []Expr
			aggs    []Agg
			empty   bool
		}{
			{"grouped", hit, byShip, aggs, false},
			{"grouped-many", hit, byID, aggs, false},
			{"scalar", hit, nil, aggs, false},
			{"scalar-empty", miss, nil, aggs, true},
			{"grouped-empty", miss, byShip, aggs, true},
			{"grouped-by-string", every, []Expr{note}, strAggs, false},
			{"scalar-string-minmax", every, nil, strAggs, false},
		}
		for _, tc := range cases {
			keys, pred := tc.keys, tc.pred
			ex := NewExec(h, d)
			dev, err := Collect(ex.NewNDPAggScan(tab, keys, pred, tc.groupBy, tc.aggs))
			if err != nil {
				t.Fatalf("%s: device aggregate: %v", tc.name, err)
			}
			overNDP, err := Collect(&HashAggOp{Ex: ex, In: ex.NewNDPScan(tab, keys, pred), GroupBy: tc.groupBy, Aggs: tc.aggs})
			if err != nil {
				t.Fatalf("%s: host aggregate over NDP scan: %v", tc.name, err)
			}
			overConv, err := Collect(&HashAggOp{Ex: ex, In: ex.NewConvScan(tab, pred), GroupBy: tc.groupBy, Aggs: tc.aggs})
			if err != nil {
				t.Fatalf("%s: host aggregate over Conv scan: %v", tc.name, err)
			}
			if tc.empty != (len(overConv) == 0 || overConv[0][len(tc.groupBy)].I == 0) {
				t.Fatalf("%s: fixture does not exercise the case: %v", tc.name, overConv)
			}
			if tc.empty {
				sameCells(t, tc.name+": device vs host-over-conv", dev, overConv)
				sameCells(t, tc.name+": host-over-ndp vs host-over-conv", overNDP, overConv)
			} else {
				sameRows(t, dev, overConv)
				sameRows(t, overNDP, overConv)
			}
		}
	})
}

func TestNDPAggScanStoppedEarlyDrainsAndReaps(t *testing.T) {
	// One group per row: the result spans many D2H packets, far more
	// than the port queue holds, so a consumer that stops after a few
	// rows leaves the device producer blocked mid-stream. Close must
	// drain the port and reap the application.
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 60000, 1)
		ex := NewExec(h, d)
		scan := ex.NewNDPAggScan(tab, []string{"padding"}, nil, []Expr{C(tab.Sch, "id")}, []Agg{{F: CountAgg, Name: "n"}})
		rows, err := Collect(&LimitOp{In: scan, N: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("limit emitted %d rows", len(rows))
		}
		// Drained: the whole group stream crossed the link, not just the
		// packet the five rows came from.
		if got, min := ex.St.PagesOverLink*int64(tab.PageSize), int64(4*NDPBatchBytes); got < min {
			t.Fatalf("only %d bytes crossed the link; the port was not drained (want >= %d)", got, min)
		}
		// Reaped: no SSDlet instance still holds the module.
		if err := h.SSD().UnloadModule(d.ndpModule); err != nil {
			t.Fatalf("device application not reaped: %v", err)
		}
		d.ndpModule = nil
	})
}

func TestNDPAggScanSurfacesUncorrectableWithoutFallback(t *testing.T) {
	// Partial aggregates die with the device application, so the scan
	// has no Conv fallback: the media error reaches the caller.
	sys := faultSys(scanPlan)
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		tab := loadFixture(t, h, d, 2000, 50)
		ex := NewExec(h, d)
		_, err := Collect(ex.NewNDPAggScan(tab, []string{"TARGETKEY"}, EqS(tab.Sch, "note", "TARGETKEY"), nil,
			[]Agg{{F: CountAgg, Name: "n"}}))
		if !errors.Is(err, fault.ErrUncorrectable) {
			t.Fatalf("aggregate scan under %v: err = %v, want fault.ErrUncorrectable", scanPlan, err)
		}
		if ex.St.NDPFallbacks != 0 || sys.Plat.Ctrs.Get("db.ndp.fallback") != 0 {
			t.Fatalf("aggregate scan fell back (stats %d, counter %d)", ex.St.NDPFallbacks, sys.Plat.Ctrs.Get("db.ndp.fallback"))
		}
		if sys.Plat.Inj.Count(fault.Fallback) != 0 {
			t.Fatal("injector logged a fallback consequence")
		}
	})
}
