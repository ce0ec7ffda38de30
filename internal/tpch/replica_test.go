package tpch

import (
	"sort"
	"testing"

	"biscuit"
	"biscuit/internal/db"
)

// loadReplicaArray shard-loads with one-hop fact replicas, same seed
// and geometry as loadArray.
func loadReplicaArray(t *testing.T, n int) (*biscuit.MultiSystem, []*Data, []*Data) {
	t.Helper()
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	ms := biscuit.NewMultiSystem(cfg, n)
	dbs := make([]*db.Database, n)
	for i, s := range ms.Systems {
		dbs[i] = db.Open(s)
	}
	var prim, repl []*Data
	ms.Run(func(h *biscuit.MultiHost) {
		hosts := make([]*biscuit.Host, n)
		for i := range hosts {
			hosts[i] = h.Unit(i)
		}
		var err error
		prim, repl, err = Gen{SF: 0.002}.LoadShards(hosts, dbs, biscuit.SeededRand(7), true)
		if err != nil {
			t.Fatal(err)
		}
	})
	return ms, prim, repl
}

func TestLoadShardsReplicaMirrorsPredecessor(t *testing.T) {
	// Device j's replica view must hold an exact copy of device j-1's
	// fact partition: same row counts, same rows, scanned from the
	// "_r" tables on the successor device.
	const n = 2
	ms, prim, repl := loadReplicaArray(t, n)
	for j := 0; j < n; j++ {
		pre := (j + n - 1) % n
		if repl[j].Orders.Rows != prim[pre].Orders.Rows ||
			repl[j].Lineitem.Rows != prim[pre].Lineitem.Rows {
			t.Fatalf("replica on %d has %d/%d fact rows, primary on %d has %d/%d",
				j, repl[j].Orders.Rows, repl[j].Lineitem.Rows,
				pre, prim[pre].Orders.Rows, prim[pre].Lineitem.Rows)
		}
	}
	var primRows, replRows []string
	ms.Run(func(h *biscuit.MultiHost) {
		for j := 0; j < n; j++ {
			pre := (j + n - 1) % n
			pex := db.NewExec(h.Unit(pre), prim[pre].DB)
			rows, err := db.Collect(pex.NewConvScan(prim[pre].Lineitem, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				primRows = append(primRows, rowKey(r))
			}
			rex := db.NewExec(h.Unit(j), repl[j].DB)
			rrows, err := db.Collect(rex.NewConvScan(repl[j].Lineitem, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rrows {
				// Replica co-partitioning: the copy on device j carries
				// the predecessor's partition, keyed (j-1)%n.
				if r[0].I%int64(n) != int64(pre) {
					t.Fatalf("replica row orderkey %d on device %d, want partition %d", r[0].I, j, pre)
				}
				replRows = append(replRows, rowKey(r))
			}
		}
	})
	sort.Strings(primRows)
	sort.Strings(replRows)
	if len(primRows) != len(replRows) {
		t.Fatalf("replica union has %d lineitem rows, primary union %d", len(replRows), len(primRows))
	}
	for i := range primRows {
		if primRows[i] != replRows[i] {
			t.Fatalf("row %d diverged:\n replica: %s\n primary: %s", i, replRows[i], primRows[i])
		}
	}
}

func TestLoadShardsReplicaPrimariesMatchLoadShards(t *testing.T) {
	// Replication must not perturb the primaries: routing consumes no
	// randomness, so every primary shard is byte-identical to what a
	// plain LoadShards with the same seed builds.
	_, plain := loadArray(t, 2)
	_, prim, repl := loadReplicaArray(t, 2)
	for i := range plain {
		if plain[i].Orders.Rows != prim[i].Orders.Rows ||
			plain[i].Lineitem.Rows != prim[i].Lineitem.Rows {
			t.Fatalf("shard %d: plain %d/%d rows, replicated load %d/%d",
				i, plain[i].Orders.Rows, plain[i].Lineitem.Rows,
				prim[i].Orders.Rows, prim[i].Lineitem.Rows)
		}
		// Dimensions are shared between the primary and replica views,
		// not copied.
		if repl[i].Region != prim[i].Region || repl[i].Nation != prim[i].Nation {
			t.Fatalf("shard %d: replica view must share dimension tables", i)
		}
	}
}
