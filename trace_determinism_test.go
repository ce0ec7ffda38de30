package biscuit_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sql"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
	"biscuit/internal/weblog"
)

// q6 is TPC-H Query 6 (the tracesmoke query): an offloadable
// scan-aggregate that exercises the NVMe path, NAND ops, the NDP
// runtime and the db layer in one run.
const q6 = `SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
	WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
	AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`

// q1 is the fig8 point-filter projection: a selective scan that, unlike
// q6, ships projected rows (not just an aggregate) back across the
// host interface.
const q1 = `SELECT l_orderkey, l_shipdate, l_linenumber FROM lineitem
	WHERE l_shipdate = '1995-01-17'`

// rowDigest folds a result set into a stats.Digest, column names first,
// then value by value. Two identically-seeded runs must produce the same
// digest: the trace-byte comparison pins the schedule, this pins the
// answers.
func rowDigest(cols []string, rows []db.Row) uint64 {
	var d stats.Digest
	for _, c := range cols {
		d.AddRecord(c)
	}
	for _, r := range rows {
		for _, v := range r {
			d.AddRecord(v.String())
		}
	}
	return d.Sum64()
}

// tracedSQL loads TPC-H at the given seed on a fresh system with
// tracing enabled, runs query, and returns the exported trace bytes
// plus a digest of the result rows.
func tracedSQL(t *testing.T, seed int64, query string) ([]byte, uint64) {
	t.Helper()
	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	tr := sys.NewTracer()
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		if _, err := (tpch.Gen{SF: 0.001}).Load(h, d, biscuit.SeededRand(seed)); err != nil {
			t.Fatalf("load: %v", err)
		}
	})
	var digest uint64
	sys.Run(func(h *biscuit.Host) {
		ex := db.NewExec(h, d)
		res, err := sql.Run(ex, d, planner.Default(), query)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		digest = rowDigest(res.Cols, res.Rows)
	})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes(), digest
}

// tracedWeblog generates the web-log corpus at the given seed on a
// fresh traced system, runs the NDP needle scan, and returns the trace
// bytes plus a digest over the planted/found counts.
func tracedWeblog(t *testing.T, seed int64) ([]byte, uint64) {
	t.Helper()
	const needle = "ERROR 500"
	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	tr := sys.NewTracer()
	var digest uint64
	sys.Run(func(h *biscuit.Host) {
		size, planted, err := weblog.Generate(h, 1<<20, needle, 257, biscuit.SeededRand(seed))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		found, err := weblog.SearchNDP(h, needle)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if found < planted {
			t.Fatalf("needle scan lost matches: found %d < planted %d", found, planted)
		}
		var d stats.Digest
		d.AddInt64(size)
		d.AddInt64(planted)
		d.AddInt64(found)
		digest = d.Sum64()
	})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes(), digest
}

// firstDiff locates the first diverging byte to make a trace mismatch
// actionable.
func firstDiff(t *testing.T, a, b []byte) {
	t.Helper()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hiA, hiB := i+60, i+60
	if hiA > len(a) {
		hiA = len(a)
	}
	if hiB > len(b) {
		hiB = len(b)
	}
	t.Fatalf("same seed produced different traces (%d vs %d bytes); first diff at byte %d:\n run1: …%s…\n run2: …%s…",
		len(a), len(b), i, a[lo:hiA], b[lo:hiB])
}

// TestTraceDeterministic is the end-to-end regression for the tracing
// contract: the span stream is part of the deterministic simulation, so
// two identically-seeded runs must export byte-identical traces and
// identical result digests. Any diff here means nondeterminism leaked
// into the instrumented stack (map iteration, wall-clock, unordered
// scheduling), not just into the trace itself.
//
// The matrix crosses three seeds with three workloads — the Q6
// scan-aggregate, the Q1 row-shipping filter, and the weblog NDP
// needle scan — so a determinism bug has to survive nine distinct
// schedules to slip through.
func TestTraceDeterministic(t *testing.T) {
	workloads := []struct {
		name string
		run  func(t *testing.T, seed int64) ([]byte, uint64)
	}{
		{"q6", func(t *testing.T, seed int64) ([]byte, uint64) { return tracedSQL(t, seed, q6) }},
		{"q1", func(t *testing.T, seed int64) ([]byte, uint64) { return tracedSQL(t, seed, q1) }},
		{"weblog", tracedWeblog},
	}
	for _, wl := range workloads {
		for _, seed := range []int64{3, 7, 11} {
			t.Run(fmt.Sprintf("%s/seed%d", wl.name, seed), func(t *testing.T) {
				a, da := wl.run(t, seed)
				b, db_ := wl.run(t, seed)
				if da != db_ {
					t.Errorf("same seed produced different result digests: %016x vs %016x", da, db_)
				}
				if !bytes.Equal(a, b) {
					firstDiff(t, a, b)
				}
				if wl.name == "q6" && seed == 7 {
					// The canonical tracesmoke configuration: also check
					// the trace actually covers the offloaded stack.
					for _, want := range []string{"nvme.read", "nand.read", "scan.ndp", `"ph":"M"`} {
						if !strings.Contains(string(a), want) {
							t.Errorf("trace missing expected marker %q", want)
						}
					}
				}
			})
		}
	}
}
