package db

import (
	"math/rand"
	"testing"

	"biscuit"
)

// btreeRig loads a table of (k int, v string) with controlled key
// duplication and builds an index over k.
func btreeRig(t *testing.T, rows int, dupEvery int) (*biscuit.System, *Database, *Table) {
	t.Helper()
	sys := quickSys()
	d := Open(sys)
	sys.Run(func(h *biscuit.Host) {
		sch := NewSchema(Column{"k", TInt}, Column{"v", TString}, Column{"pad", TString})
		ld, err := d.NewLoader(h, "kv", sch, 16)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < rows; i++ {
			k := int64(i)
			if dupEvery > 0 {
				k = int64(i / dupEvery) // runs of duplicates
			}
			ld.Add(Row{Int(k), Str("v" + itoa64(int64(i))), Str(pad(rng))})
		}
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return sys, d, d.Table("kv")
}

func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func pad(rng *rand.Rand) string {
	b := make([]byte, 40)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestIndexBuildAndUniqueLookup(t *testing.T) {
	sys, d, tab := btreeRig(t, 20000, 0)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		ix, err := d.BuildIndex(ex, tab, "k")
		if err != nil {
			t.Fatal(err)
		}
		if ix.Entries() != 20000 {
			t.Fatalf("entries=%d", ix.Entries())
		}
		if ix.Height() < 2 {
			t.Fatalf("height=%d, expected a multi-level tree", ix.Height())
		}
		for _, key := range []int64{0, 1, 9999, 19999} {
			es, err := ix.Lookup(ex, key)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != 1 {
				t.Fatalf("key %d: %d entries", key, len(es))
			}
			rows, err := ix.FetchRows(ex, es)
			if err != nil {
				t.Fatal(err)
			}
			if rows[0][0].I != key || rows[0][1].S != "v"+itoa64(key) {
				t.Fatalf("key %d fetched %v", key, rows[0])
			}
		}
		if es, _ := ix.Lookup(ex, 999999); len(es) != 0 {
			t.Fatalf("missing key returned %d entries", len(es))
		}
	})
}

func TestIndexDuplicatesAcrossLeaves(t *testing.T) {
	// Duplicate runs of 2000 entries span multiple ~1170-entry leaves.
	sys, d, tab := btreeRig(t, 10000, 2000)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		ix, err := d.BuildIndex(ex, tab, "k")
		if err != nil {
			t.Fatal(err)
		}
		for key := int64(0); key < 5; key++ {
			es, err := ix.Lookup(ex, key)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != 2000 {
				t.Fatalf("key %d: %d entries, want 2000", key, len(es))
			}
			rows, err := ix.FetchRows(ex, es)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r[0].I != key {
					t.Fatalf("fetched row with key %d, want %d", r[0].I, key)
				}
			}
		}
	})
}

func TestIndexLookupRandomizedAgainstScan(t *testing.T) {
	sys, d, tab := btreeRig(t, 5000, 7)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		ix, err := d.BuildIndex(ex, tab, "k")
		if err != nil {
			t.Fatal(err)
		}
		all, err := Collect(ex.NewConvScan(tab, nil))
		if err != nil {
			t.Fatal(err)
		}
		byKey := map[int64]int{}
		for _, r := range all {
			byKey[r[0].I]++
		}
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 50; trial++ {
			key := int64(rng.Intn(900))
			es, err := ix.Lookup(ex, key)
			if err != nil {
				t.Fatal(err)
			}
			if len(es) != byKey[key] {
				t.Fatalf("key %d: index %d vs scan %d", key, len(es), byKey[key])
			}
		}
	})
}

func TestINLJoinMatchesHashJoin(t *testing.T) {
	sys, d, tab := btreeRig(t, 3000, 3)
	sys.Run(func(h *biscuit.Host) {
		// Outer: a small in-memory relation of probe keys.
		outerSch := NewSchema(Column{"pk", TInt})
		var outerRows []Row
		for i := 0; i < 200; i += 2 {
			outerRows = append(outerRows, Row{Int(int64(i))})
		}
		ix, err := d.BuildIndex(NewExec(h, d), tab, "k")
		if err != nil {
			t.Fatal(err)
		}
		var first []Row
		for _, batch := range joinBatchSizes {
			ex := NewExec(h, d)
			ex.BatchSize = batch
			inl := &INLJoin{Ex: ex, Outer: NewMemScan(outerSch, outerRows), Ix: ix, OuterKey: C(outerSch, "pk")}
			inlRows, err := Collect(inl)
			if err != nil {
				t.Fatal(err)
			}
			hj := &HashJoin{Ex: ex, Left: NewMemScan(outerSch, outerRows), Right: ex.NewConvScan(tab, nil),
				LeftKey: C(outerSch, "pk"), RightKey: C(tab.Sch, "k")}
			hjRows, err := Collect(hj)
			if err != nil {
				t.Fatal(err)
			}
			if len(inlRows) == 0 {
				t.Fatalf("batch=%d: join found no rows; test exercises nothing", batch)
			}
			// Both emit in probe order with a key's matches in heap order,
			// so the rows agree one for one, at every batch size.
			sameRows(t, inlRows, hjRows)
			if first == nil {
				first = hjRows
			}
			sameRows(t, hjRows, first)
		}
	})
}

func TestINLJoinChargesPerProbeIO(t *testing.T) {
	sys, d, tab := btreeRig(t, 5000, 0)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		ix, err := d.BuildIndex(ex, tab, "k")
		if err != nil {
			t.Fatal(err)
		}
		outerSch := NewSchema(Column{"pk", TInt})
		var few, many []Row
		for i := 0; i < 10; i++ {
			few = append(few, Row{Int(int64(i * 97))})
		}
		for i := 0; i < 200; i++ {
			many = append(many, Row{Int(int64(i * 13))})
		}
		run := func(outer []Row) int64 {
			e2 := NewExec(h, d)
			j := &INLJoin{Ex: e2, Outer: NewMemScan(outerSch, outer), Ix: ix, OuterKey: C(outerSch, "pk")}
			if _, err := Collect(j); err != nil {
				t.Fatal(err)
			}
			return e2.St.PagesOverLink
		}
		fewPages, manyPages := run(few), run(many)
		if manyPages <= fewPages*5 {
			t.Fatalf("probe I/O must scale with outer cardinality: %d vs %d pages", fewPages, manyPages)
		}
	})
}

func TestBuildIndexRejectsNonInt(t *testing.T) {
	sys, d, tab := btreeRig(t, 100, 0)
	sys.Run(func(h *biscuit.Host) {
		ex := NewExec(h, d)
		if _, err := d.BuildIndex(ex, tab, "v"); err == nil {
			t.Fatal("expected error for string column")
		}
	})
}
