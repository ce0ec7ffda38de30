package db_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/fault"
	"biscuit/internal/tpch"
)

// TestMatcherMemoIsInvisible: the 22 TPC-H queries run back to back on
// one Database, in id order and reversed, each return the rows, error,
// Stats and sim time they return when every page they judge runs
// through the automaton — at batch sizes 1, 7 and 1024, and under a
// fault plan whose reads fail, retry and fall back. A verdict remembered
// for the wrong page would show as a planner decision, a hit list or a
// row that differs.
func TestMatcherMemoIsInvisible(t *testing.T) {
	inOrder := tpch.All()
	reversed := slices.Clone(inOrder)
	slices.Reverse(reversed)
	check := func(what string, plan fault.Plan, batch int, queries []tpch.Query) {
		t.Helper()
		got, d := runSuite(t, plan, batch, queries, nil)
		want, _ := runSuite(t, plan, batch, queries, db.DropMatcherMemo)
		for i, q := range queries {
			g, w := got[i], want[i]
			if g.err != w.err || g.st != w.st || g.took != w.took {
				t.Fatalf("%s Q%d: with the memo err %q, %+v in %v; without err %q, %+v in %v",
					what, q.ID, g.err, g.st, g.took, w.err, w.st, w.took)
			}
			if !slices.EqualFunc(g.rows, w.rows, slices.Equal) {
				t.Fatalf("%s Q%d: with the memo %d rows, without %d, and they differ", what, q.ID, len(g.rows), len(w.rows))
			}
		}
		if st := d.Sys.Plat.Matcher.Stats(); st.Recalled == 0 || st.Judged == 0 {
			t.Fatalf("%s: matcher stats %+v; the memo went untested", what, st)
		}
	}
	for _, batch := range []int{1, 7, 1024} {
		check(fmt.Sprintf("in order, batch=%d", batch), fault.Plan{}, batch, inOrder)
		check(fmt.Sprintf("reversed, batch=%d", batch), fault.Plan{}, batch, reversed)
	}
	check("in order, faults", db.LawFaults, 7, inOrder)
	check("reversed, faults", db.LawFaults, 7, reversed)
}

// TestMatcherMemoSeesRewrittenPage: a page the memo has judged to hold
// no key is rewritten through the file API with an image that plants
// one. The stored page is a new buffer, so the next planner sample and
// the next device scan both judge it afresh and see the key: the sample
// counts it, and the scan hands the forged page to the device CPU, whose
// decode fails.
func TestMatcherMemoSeesRewrittenPage(t *testing.T) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 128
	cfg.NAND.PagesPerBlock = 32
	sys := biscuit.NewSystem(cfg)
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := db.NewSchema(db.Column{Name: "id", T: db.TInt}, db.Column{Name: "note", T: db.TString})
		ld, err := d.NewLoader(h, "notes", sch, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 20000 {
			if err := ld.Add(db.Row{db.Int(int64(i)), db.Str("padding-text-xyz")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
		tab := d.Table("notes")
		const key, seed = "PLANTEDKEY", 5
		keys := []string{key}
		sample := func() float64 {
			pl := &planner.Planner{Threshold: 0.25, Rand: rand.New(rand.NewSource(seed))}
			sel, err := pl.SampleSelectivity(db.NewExec(h, d), tab, keys)
			if err != nil {
				t.Fatal(err)
			}
			return sel
		}
		scan := func() error {
			_, err := db.Collect(db.NewExec(h, d).NewNDPScan(tab, keys, nil))
			return err
		}
		if sel := sample(); sel != 0 {
			t.Fatalf("sampled selectivity %v before the rewrite; no page holds the key", sel)
		}
		if err := scan(); err != nil {
			t.Fatal(err)
		}
		m := sys.Plat.Matcher
		if st := m.Stats(); st.Judged != tab.Pages || st.Recalled == 0 {
			t.Fatalf("matcher stats %+v over %d pages: want each judged once, and the scan recalling the sample's", st, tab.Pages)
		}

		// The sample's first page: the one a same-seeded sample reads first.
		pg := rand.New(rand.NewSource(seed)).Int63n(tab.Pages)
		img := db.CorruptPage(tab.PageSize, 0x7FFF, key, 3)
		f, err := h.SSD().OpenFile(tab.FileName, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Write(h.Proc(), pg*int64(tab.PageSize), img); err != nil {
			t.Fatal(err)
		}
		if err := f.Flush(h.Proc()); err != nil {
			t.Fatal(err)
		}

		if sel := sample(); sel == 0 {
			t.Fatal("the planner's sample missed the key planted in its first page: a stale verdict")
		}
		if err := scan(); err == nil || !strings.Contains(err.Error(), "device scan failed") {
			t.Fatalf("the device scan must pass the rewritten page to the device CPU and fail its decode; got %v", err)
		}
	})
}
