package tpch

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"biscuit"
	"biscuit/internal/db"
)

// loadArray builds an n-device array, opens one database per device
// and shard-loads SF 0.002 with seed 7 (the single-device test seed).
func loadArray(t *testing.T, n int) (*biscuit.MultiSystem, []*Data) {
	t.Helper()
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	ms := biscuit.NewMultiSystem(cfg, n)
	dbs := make([]*db.Database, n)
	for i, s := range ms.Systems {
		dbs[i] = db.Open(s)
	}
	var datas []*Data
	ms.Run(func(h *biscuit.MultiHost) {
		hosts := make([]*biscuit.Host, n)
		for i := range hosts {
			hosts[i] = h.Unit(i)
		}
		var err error
		datas, _, err = Gen{SF: 0.002}.LoadShards(hosts, dbs, biscuit.SeededRand(7), false)
		if err != nil {
			t.Fatal(err)
		}
	})
	return ms, datas
}

func TestLoadShardsPartitionsFactsAndReplicatesDims(t *testing.T) {
	_, datas := loadArray(t, 3)

	// Dimensions replicate: every shard holds the full table.
	for _, d := range datas {
		if d.Region.Rows != 5 || d.Nation.Rows != 25 {
			t.Fatalf("dimension tables must replicate: region=%d nation=%d", d.Region.Rows, d.Nation.Rows)
		}
	}
	// Facts partition: shard row counts sum to the single-device counts
	// (3000 orders at SF 0.002) and no shard is empty.
	var orders, items int64
	for i, d := range datas {
		if d.Orders.Rows == 0 || d.Lineitem.Rows == 0 {
			t.Fatalf("shard %d got no fact rows", i)
		}
		orders += d.Orders.Rows
		items += d.Lineitem.Rows
	}
	if orders != 3000 {
		t.Fatalf("orders rows across shards = %d, want 3000", orders)
	}
	if ratio := float64(items) / float64(orders); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("lineitem/orders ratio %.2f", ratio)
	}
}

// The seed-7, SF 0.002 lineitem table, pinned at the commit before Load
// became the 1-way LoadShards: its row count and the SHA-256 of its
// sorted, newline-terminated rowKeys.
const (
	pinnedLineitemRows = 11920
	pinnedLineitemSHA  = "1d93a2631e20f2cf9d97f3da2a970996543ac6158001ca940b250c199f51e64b"
)

// checkLineitemPin compares a set of lineitem rowKeys with the pin.
func checkLineitemPin(t *testing.T, what string, keys []string) {
	t.Helper()
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k + "\n"))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(keys) != pinnedLineitemRows || got != pinnedLineitemSHA {
		t.Fatalf("%s: %d lineitem rows, sha %s; pinned %d, %s", what, len(keys), got, pinnedLineitemRows, pinnedLineitemSHA)
	}
}

func TestLoadShardsCoPartitionsAndMatchesSingleLoad(t *testing.T) {
	ms, datas := loadArray(t, 2)

	// Single-device load with the same seed.
	scfg := biscuit.DefaultConfig()
	scfg.NAND.BlocksPerDie = 256
	scfg.NAND.PagesPerBlock = 64
	sys := biscuit.NewSystem(scfg)
	sd := db.Open(sys)
	var single, union []string
	sys.Run(func(h *biscuit.Host) {
		ref, err := Gen{SF: 0.002}.Load(h, sd, biscuit.SeededRand(7))
		if err != nil {
			t.Fatal(err)
		}
		ex := db.NewExec(h, sd)
		rows, err := db.Collect(ex.NewConvScan(ref.Lineitem, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			single = append(single, rowKey(r))
		}
	})
	ms.Run(func(h *biscuit.MultiHost) {
		for i, d := range datas {
			ex := db.NewExec(h.Unit(i), d.DB)
			rows, err := db.Collect(ex.NewConvScan(d.Lineitem, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				// Co-partitioning: l_orderkey%2 decides the shard.
				if r[0].I%2 != int64(i) {
					t.Fatalf("lineitem orderkey %d on shard %d", r[0].I, i)
				}
				union = append(union, rowKey(r))
			}
		}
	})
	// Both are the table Load built before it delegated to LoadShards.
	checkLineitemPin(t, "Load", single)
	checkLineitemPin(t, "LoadShards x2 union", union)
}

func rowKey(r db.Row) string {
	s := ""
	for i, v := range r {
		if i > 0 {
			s += "|"
		}
		s += v.String()
	}
	return s
}
