// Pointerchase: the paper's graph-traversal application (§V-C,
// Table IV). A synthetic social graph is stored on the SSD; 100 random
// walks are then driven twice — from the host (each hop is a full NVMe
// round trip) and inside the SSD (each hop is an internal read) — under
// increasing background load.
//
//	go run ./examples/pointerchase
package main

import (
	"fmt"
	"log"

	"biscuit"
	"biscuit/internal/graph"
)

func main() {
	sys := biscuit.NewSystem(biscuit.DefaultConfig())
	sys.Install(graph.Image())

	sys.Run(func(h *biscuit.Host) {
		const (
			nodes = 20000
			walks = 100
			hops  = 40
		)
		s, err := graph.Generate(h, nodes, biscuit.SeededRand(7))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("graph: %d nodes stored as %d-byte records\n\n", nodes, graph.NodeRecordSize)
		fmt.Printf("%-10s %14s %14s %9s\n", "#threads", "Conv", "Biscuit", "gain")

		plat := h.System().Plat
		for _, threads := range []int{0, 6, 12, 18, 24} {
			plat.SetHostLoad(threads)
			t0 := h.Now()
			cres, err := s.ChaseConv(h, walks, hops, biscuit.SeededRand(42))
			if err != nil {
				log.Fatal(err)
			}
			convT := h.Now() - t0
			t0 = h.Now()
			nres, err := s.ChaseNDP(h, walks, hops, 42)
			if err != nil {
				log.Fatal(err)
			}
			ndpT := h.Now() - t0
			if cres.FinalSum != nres.FinalSum {
				log.Fatalf("traversals diverged: %d vs %d", cres.FinalSum, nres.FinalSum)
			}
			fmt.Printf("%-10d %14v %14v %8.2fx\n", threads, convT, ndpT, float64(convT)/float64(ndpT))
		}
		plat.SetHostLoad(0)
		fmt.Println("\nConv degrades with load; the in-SSD walk does not (paper Table IV).")
	})
}
