package tpch

import (
	"fmt"
	"math/rand"

	"biscuit"
	"biscuit/internal/db"
)

// LoadShards generates the catalog once and routes it across one
// database per device of an array: dimension tables (region, nation,
// supplier, customer, part, partsupp) are replicated to every shard so
// joins stay local, while the two fact tables (orders, lineitem) are
// co-partitioned by orderkey%N so each order's lineitems land on the
// same shard. hosts[i] must be a host view of the device backing
// dbs[i] (e.g. MultiHost.Unit(i)).
//
// Routing consumes no randomness, so the union of the shards is the
// same catalog whatever the shard count (Load is the 1-way case).
func (g Gen) LoadShards(hosts []*biscuit.Host, dbs []*db.Database, rng *rand.Rand) ([]*Data, error) {
	if len(dbs) == 0 || len(hosts) != len(dbs) {
		return nil, fmt.Errorf("tpch: LoadShards needs one host per database, got %d hosts / %d dbs", len(hosts), len(dbs))
	}
	if err := g.generate(shardSinks(hosts, dbs, false), rng); err != nil {
		return nil, err
	}
	out := make([]*Data, len(dbs))
	for i, d := range dbs {
		out[i] = tablesOf(d)
	}
	return out, nil
}

// LoadShardsReplica is LoadShards plus fact-table replication for
// tenant migration: shard k's partition of orders/lineitem is
// additionally written to shard (k+1)%N under "orders_r"/"lineitem_r",
// so when device k degrades its tenants re-home to the next device and
// scan the replica tables there. The generation pass and rng draw
// order are identical to LoadShards — routing consumes no randomness —
// so every primary shard is byte-identical to what LoadShards builds.
// It returns the primary shard views and, per device, the replica view
// (dimension tables shared, fact tables pointing at the "_r" copies of
// the previous device's partition).
func (g Gen) LoadShardsReplica(hosts []*biscuit.Host, dbs []*db.Database, rng *rand.Rand) ([]*Data, []*Data, error) {
	if len(dbs) == 0 || len(hosts) != len(dbs) {
		return nil, nil, fmt.Errorf("tpch: LoadShardsReplica needs one host per database, got %d hosts / %d dbs", len(hosts), len(dbs))
	}
	if err := g.generate(shardSinks(hosts, dbs, true), rng); err != nil {
		return nil, nil, err
	}
	prim := make([]*Data, len(dbs))
	repl := make([]*Data, len(dbs))
	for i, d := range dbs {
		prim[i] = tablesOf(d)
		r := tablesOf(d)
		r.Orders = d.Table("orders_r")
		r.Lineitem = d.Table("lineitem_r")
		repl[i] = r
	}
	return prim, repl, nil
}

// shardSinks is generate's sink factory over one database per shard:
// dimension tables broadcast to every shard, fact tables partition, and
// with replicas each fact table also opens its "_r" copy. Per table the
// primary loaders open before the replica ones, which fixes the isfs
// placement of every file.
func shardSinks(hosts []*biscuit.Host, dbs []*db.Database, replicas bool) func(string, *db.Schema, int) (rowSink, error) {
	open := func(name string, sch *db.Schema, batchPages int) ([]*db.Loader, error) {
		ws := make([]*db.Loader, len(dbs))
		for i := range dbs {
			w, err := dbs[i].NewLoader(hosts[i], name, sch, batchPages)
			if err != nil {
				return nil, err
			}
			ws[i] = w
		}
		return ws, nil
	}
	return func(name string, sch *db.Schema, batchPages int) (rowSink, error) {
		ws, err := open(name, sch, batchPages)
		if err != nil {
			return nil, err
		}
		if name != "orders" && name != "lineitem" {
			return &broadcastSink{ws: ws}, nil
		}
		s := &partitionSink{ws: ws}
		if replicas {
			if s.rs, err = open(name+"_r", sch, batchPages); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

// broadcastSink replicates every row to all shards (dimension tables).
type broadcastSink struct {
	ws []*db.Loader
}

func (s *broadcastSink) Add(r db.Row) error {
	for _, w := range s.ws {
		if err := w.Add(r); err != nil {
			return err
		}
	}
	return nil
}

func (s *broadcastSink) Close() error { return closeAll(s.ws) }

// partitionSink hashes each row to one shard by its leading key column
// (o_orderkey / l_orderkey — both tables carry it at index 0, which is
// what co-partitions an order with its lineitems). With replica loaders
// it also writes each row to the next shard's replica table — one-hop
// chained replication, enough for the serving layer to migrate any
// single degraded device's tenants.
type partitionSink struct {
	ws []*db.Loader // primary partitions
	rs []*db.Loader // replica tables ("orders_r"/"lineitem_r"), or none
}

func (s *partitionSink) Add(r db.Row) error {
	k := r[0].I % int64(len(s.ws))
	if err := s.ws[k].Add(r); err != nil {
		return err
	}
	if len(s.rs) == 0 {
		return nil
	}
	return s.rs[(k+1)%int64(len(s.rs))].Add(r)
}

func (s *partitionSink) Close() error {
	if err := closeAll(s.ws); err != nil {
		return err
	}
	return closeAll(s.rs)
}

func closeAll(ws []*db.Loader) error {
	for _, w := range ws {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}
