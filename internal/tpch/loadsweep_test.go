package tpch

import (
	"fmt"
	"testing"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/sim"
)

// TestArrayLoadSweepDegradesConvNotNDP generalizes the Table IV/V
// property to a 4-device array: with 24 StreamBench threads on the
// shared host, a scattered Conv scan over all shards slows down by the
// host-contention factor, while the same scan offloaded as NDP stays
// flat because it never touches the contended memory hierarchy.
func TestArrayLoadSweepDegradesConvNotNDP(t *testing.T) {
	const devices = 4
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	ms := biscuit.NewMultiSystem(cfg, devices)
	dbs := make([]*db.Database, devices)
	for i, sys := range ms.Systems {
		dbs[i] = db.Open(sys)
	}
	var datas []*Data
	ms.Run(func(h *biscuit.MultiHost) {
		hosts := make([]*biscuit.Host, devices)
		for i := range hosts {
			hosts[i] = h.Unit(i)
		}
		var err error
		datas, _, err = Gen{SF: 0.002}.LoadShards(hosts, dbs, biscuit.SeededRand(3), false)
		if err != nil {
			panic(err)
		}
	})

	// scanAll scatters one lineitem scan per shard and waits for the
	// slowest, like the serving layer's gather does.
	scanAll := func(h *biscuit.MultiHost, conv bool) sim.Time {
		p := h.Proc()
		start := p.Now()
		evs := make([]*sim.Event, devices)
		for i := 0; i < devices; i++ {
			i := i
			evs[i] = h.Go(fmt.Sprintf("scan%d", i), func(h2 *biscuit.MultiHost) {
				tab := datas[i].Lineitem
				pred := db.RangeD(tab.Sch, "l_shipdate", "1994-01-01", "1995-01-01")
				ex := db.NewExec(h2.Unit(i), dbs[i])
				var it db.Iterator
				if conv {
					it = ex.NewConvScan(tab, pred)
				} else {
					keys, ok := planner.ExtractKeys(tab.Sch, pred)
					if !ok {
						panic("no matcher keys for shipdate range")
					}
					it = ex.NewNDPScan(tab, keys, pred)
				}
				if _, err := db.Collect(it); err != nil {
					panic(err)
				}
			})
		}
		p.WaitAll(evs...)
		return p.Now() - start
	}

	var convIdle, convLoaded, ndpIdle, ndpLoaded sim.Time
	var maxSlow float64 // the contention model's slowdown at 24 threads
	ms.Run(func(h *biscuit.MultiHost) {
		convIdle = scanAll(h, true)
		ndpIdle = scanAll(h, false)
		// One host fronts the array, so loading it through drive 0
		// loads every drive's host path.
		ms.Systems[0].Plat.SetHostLoad(24)
		for i, sys := range ms.Systems {
			if got := sys.Plat.HostLoad(); got != 24 {
				panic(fmt.Sprintf("drive %d sees host load %d, want 24", i, got))
			}
		}
		maxSlow = ms.Systems[devices-1].Plat.LoadFactor()
		convLoaded = scanAll(h, true)
		ndpLoaded = scanAll(h, false)
		ms.Systems[0].Plat.SetHostLoad(0)
	})

	convRatio := float64(convLoaded) / float64(convIdle)
	ndpRatio := float64(ndpLoaded) / float64(ndpIdle)
	if convRatio < 1.2 {
		t.Fatalf("Conv scatter-scan barely degraded under 24 threads: ratio %.3f", convRatio)
	}
	if convRatio > maxSlow*1.1 {
		t.Fatalf("Conv slowdown %.3f exceeds the contention model's ceiling %.3f", convRatio, maxSlow)
	}
	if ndpRatio > 1.05 {
		t.Fatalf("NDP scatter-scan degraded under host load: ratio %.3f (must stay flat)", ndpRatio)
	}
}
