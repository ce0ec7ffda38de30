// Command grepssd is the paper's "simple string search" utility (§V-C):
// it generates a web-log corpus on the simulated SSD and searches it for
// a keyword with both engines — host Boyer–Moore (Conv) and the
// per-channel hardware pattern matcher (Biscuit) — reporting counts,
// times and the speed-up, optionally under background load.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"biscuit"
	"biscuit/internal/weblog"
)

// checkNeedle rejects a keyword neither engine can search for: the host
// Boyer–Moore needs at least one byte, the hardware matcher at most 16.
func checkNeedle(needle string) error {
	switch {
	case needle == "":
		return errors.New("-needle is empty")
	case len(needle) > 16:
		return errors.New("needle exceeds the hardware matcher's 16-byte key limit")
	}
	return nil
}

func main() {
	var (
		size   = flag.Int64("size", 16<<20, "corpus size in bytes")
		needle = flag.String("needle", "XNEEDLEX", "keyword to search (<=16 bytes for the matcher)")
		every  = flag.Int("every", 1000, "plant the needle every N lines (0 = never)")
		load   = flag.Int("load", 0, "background StreamBench threads")
		seed   = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := checkNeedle(*needle); err != nil {
		fmt.Fprintln(os.Stderr, "grepssd:", err)
		os.Exit(2)
	}

	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	sys.Run(func(h *biscuit.Host) {
		n, planted, err := weblog.Generate(h, *size, *needle, *every, biscuit.SeededRand(*seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "generate:", err)
			os.Exit(1)
		}
		fmt.Printf("corpus: %d bytes, %d planted needles\n", n, planted)

		plat := h.System().Plat
		plat.SetHostLoad(*load)
		start := h.Now()
		convN, err := weblog.SearchConv(h, *needle)
		if err != nil {
			fmt.Fprintln(os.Stderr, "conv:", err)
			os.Exit(1)
		}
		convT := h.Now() - start

		start = h.Now()
		ndpN, err := weblog.SearchNDP(h, *needle)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndp:", err)
			os.Exit(1)
		}
		ndpT := h.Now() - start
		plat.SetHostLoad(0)

		fmt.Printf("Conv    (host grep):       %8d matches in %v\n", convN, convT)
		fmt.Printf("Biscuit (pattern matcher): %8d matches in %v\n", ndpN, ndpT)
		if ndpT > 0 {
			fmt.Printf("speed-up: %.1fx at load %d\n", float64(convT)/float64(ndpT), *load)
		}
		if convN != ndpN {
			fmt.Fprintln(os.Stderr, "MISMATCH between engines")
			os.Exit(1)
		}
	})
}
