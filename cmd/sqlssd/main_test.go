package main

import (
	"errors"
	"io"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sql"
	"biscuit/internal/tpch"
)

// q6 is the Makefile's tracesmoke query.
const q6 = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem " +
	"WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' " +
	"AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"

// TestPrintStatsQ6 runs the tracesmoke's Q6 (SF 0.002, seed 7) Conv then
// Biscuit, as `sqlssd -q` does, and pins the -stats dump: the db.*
// counters exactly, one line each for the FTL's RAIN, rebuild and map
// statistics, the matcher's pages and the device heaps, and the latency
// block by histogram name.
func TestPrintStatsQ6(t *testing.T) {
	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	d := db.Open(sys)
	sys.Run(func(h *biscuit.Host) {
		if _, err := (tpch.Gen{SF: 0.002}).Load(h, d, biscuit.SeededRand(7)); err != nil {
			t.Fatal(err)
		}
	})
	sys.Run(func(h *biscuit.Host) {
		if _, err := sql.Run(db.NewExec(h, d), d, nil, q6); err != nil {
			t.Fatal(err)
		}
		res, err := sql.Run(db.NewExec(h, d), d, planner.Default(), q6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision == nil {
			t.Fatal("Q6 was not offloaded")
		}
	})
	var out strings.Builder
	sys.Plat.WriteStats(&out, 1)
	got := out.String()

	counters, latencies, ok := strings.Cut(got, "-- platform 1 latencies (ns)\n")
	if !ok {
		t.Fatalf("no latency block:\n%s", got)
	}
	want := "-- platform 1 counters\n" +
		"   db.pages.link            100\n" +
		"   db.scan.conv             1\n" +
		"   db.scan.ndp              1\n"
	rain := regexp.MustCompile(`^   ftl\.rain +\{StripeSeals:16 StripeDrops:2 .*\}\n` +
		`   ftl\.rebuild +\{Pages:0 .*\}\n` +
		`   match\.pages +\{Judged:[1-9]\d* .*\}\n` +
		`   mem\.arenas +system=[1-9]\d*/[1-9]\d* user=\d+/[1-9]\d*\n` +
		`   ftl\.maps +l2p=[1-9]\d*/\d+ rev=[1-9]\d*/\d+\n$`)
	if rest, ok := strings.CutPrefix(counters, want); !ok || !rain.MatchString(rest) {
		t.Fatalf("counter block:\n%s\nwant:\n%s   ftl.rain {StripeSeals:16 StripeDrops:2 ...}\n   ftl.rebuild {Pages:0 ...}\n   match.pages ...\n   mem.arenas ...\n   ftl.maps ...", counters, want)
	}

	var names []string
	for _, l := range strings.Split(strings.TrimSuffix(latencies, "\n"), "\n") {
		names = append(names, strings.Fields(l)[0])
	}
	wantNames := "db.scan.conv db.scan.ndp fiber.sched hostif.read"
	if n := strings.Join(names, " "); n != wantNames {
		t.Fatalf("latency histograms %q, want %q", n, wantNames)
	}
}

func TestReadQueriesSplitsOnSemicolons(t *testing.T) {
	got, err := readQueries(strings.NewReader("SELECT 1 ;\n\n; SELECT 2;  \n SELECT 3"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"SELECT 1", "SELECT 2", "SELECT 3"}; !slices.Equal(got, want) {
		t.Fatalf("queries = %q, want %q", got, want)
	}
}

// TestReadQueriesReportsReadError: a failed stdin read must surface,
// not run whatever partial query text arrived before it.
func TestReadQueriesReportsReadError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("SELECT 1; SELECT l_orderkey FROM"), iotest.ErrReader(boom))
	got, err := readQueries(r)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got != nil {
		t.Fatalf("queries = %q on a read error, want none", got)
	}
}
