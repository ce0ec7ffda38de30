// Command tpchgen generates a TPC-H dataset onto the simulated SSD and
// prints the resulting catalog — table cardinalities, page counts and
// on-media sizes — plus how long the load took in device time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/tpch"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main with its arguments and output streams as parameters so
// the test can drive it; it returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpchgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := fs.Float64("sf", 0.01, "scale factor (paper uses 100)")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	d := db.Open(sys)
	var err error
	took := sys.Run(func(h *biscuit.Host) {
		_, err = (tpch.Gen{SF: *sf}).Load(h, d, biscuit.SeededRand(*seed))
	})
	if err != nil {
		fmt.Fprintln(stderr, "load:", err)
		return 1
	}

	names := make([]string, 0, len(d.Tables()))
	for n := range d.Tables() {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "TPC-H SF %.3f loaded in %v (device time)\n", *sf, took)
	fmt.Fprintf(stdout, "%-10s %12s %8s %12s\n", "table", "rows", "pages", "bytes")
	var totalB int64
	for _, n := range names {
		t := d.Table(n)
		fmt.Fprintf(stdout, "%-10s %12d %8d %12d\n", n, t.Rows, t.Pages, t.Bytes())
		totalB += t.Bytes()
	}
	fmt.Fprintf(stdout, "%-10s %21s %12d\n", "total", "", totalB)
	return 0
}
