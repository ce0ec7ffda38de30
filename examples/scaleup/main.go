// Scaleup: the paper's Fig. 1(b) organization — one host, several SSDs.
// A log corpus is sharded across the drives and searched in-storage on
// all of them concurrently; aggregate scan bandwidth grows with the
// number of drives while the host does nothing but collect counts.
//
//	go run ./examples/scaleup
package main

import (
	"bytes"
	"fmt"
	"log"

	"biscuit"
	"biscuit/internal/sim"
)

const totalData = 48 << 20

func main() {
	fmt.Printf("sharded in-storage scan of %d MiB:\n\n", totalData>>20)
	fmt.Printf("%-8s %14s %12s %14s\n", "drives", "scan time", "speed-up", "aggregate")
	var base sim.Time
	for _, n := range []int{1, 2, 4, 8} {
		took, matches := run(n)
		if base == 0 {
			base = took
		}
		fmt.Printf("%-8d %14v %11.2fx %11.2f GB/s   (%d matches)\n",
			n, took, float64(base)/float64(took),
			float64(totalData)/took.Seconds()/1e9, matches)
	}
	fmt.Println("\nEach drive scans its shard at internal bandwidth; the host only merges counts.")
}

func run(n int) (sim.Time, int64) {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	m := biscuit.NewMultiSystem(cfg, n)
	var took sim.Time
	var total int64
	m.Run(func(h *biscuit.MultiHost) {
		shard := bytes.Repeat([]byte("padding entry xx NEEDLE padding "), totalData/n/32)
		for i := 0; i < n; i++ {
			ssd := h.Unit(i).SSD()
			f, err := ssd.CreateFile("shard")
			if err != nil {
				log.Fatal(err)
			}
			if err := ssd.WriteFile(f, 0, shard); err != nil {
				log.Fatal(err)
			}
		}
		start := h.Now()
		counts := make([]int64, n)
		evs := make([]*sim.Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = h.Go(fmt.Sprintf("scan%d", i), func(h2 *biscuit.MultiHost) {
				ssd := h2.Unit(i).SSD()
				// Code 3 long-hand on purpose (biscuit.Call is the short form).
				mod, err := ssd.LoadModule(biscuit.BuiltinModule)
				if err != nil {
					log.Fatal(err)
				}
				app := ssd.NewApplication()
				let, err := app.NewSSDLet(mod, biscuit.ScannerID,
					biscuit.ScanArgs{File: "shard", Keys: []string{"NEEDLE"}, Mode: biscuit.ScanCount})
				if err != nil {
					log.Fatal(err)
				}
				port, err := biscuit.ConnectTo[biscuit.ScanResult](app, let.Out(0))
				if err != nil {
					log.Fatal(err)
				}
				if err := app.Start(); err != nil {
					log.Fatal(err)
				}
				if res, ok := port.Get(); ok {
					counts[i] = res.Matches
				}
				if err := app.Wait(); err != nil {
					log.Fatal(err)
				}
			})
		}
		h.Wait(evs...)
		took = h.Now() - start
		for _, c := range counts {
			total += c
		}
	})
	return took, total
}
