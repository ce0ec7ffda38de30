// Package graph implements the pointer-chasing workload of the paper
// (§V-C): a social-graph store laid out on the SSD's file system and a
// traversal benchmark whose execution time is essentially a sum of
// data-dependent read latencies — the workload where Biscuit's shorter
// internal read path (Table III) translates directly into end-to-end
// gains (Table IV).
//
// Substitutions (DESIGN.md): the paper uses the 42 M-vertex / 1.5 B-edge
// Twitter dataset in Neo4j; we generate a synthetic power-law graph with
// the same structural character (Zipf out-degrees) at a configurable
// size, stored Neo4j-style as fixed-size node records addressed by node
// id, each holding the out-degree and up to NodeFanout inline neighbor
// ids — so one dependent read resolves one hop, exactly the pattern the
// paper measures.
package graph

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"biscuit"
	"biscuit/internal/isfs"
)

// Layout constants.
const (
	// NodeRecordSize is the fixed on-media size of one node record.
	NodeRecordSize = 64
	// NodeFanout is the number of neighbor ids stored inline.
	NodeFanout = 14
	// nodeFile is the store's file name.
	nodeFile = "graph/nodes.dat"
)

// Store is an on-SSD adjacency store.
type Store struct {
	sys   *biscuit.System
	file  *biscuit.File
	Nodes int
}

// Generate builds a power-law graph with n nodes and writes it to the
// device. Out-degrees follow a Zipf distribution (exponent ~1.2,
// capped), neighbors are uniform random — the synthetic stand-in for the
// Twitter social graph. The caller injects the seeded rng, so the store
// layout is a pure function of (n, rng state).
func Generate(h *biscuit.Host, n int, rng *rand.Rand) (*Store, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: need at least 2 nodes")
	}
	f, err := h.SSD().CreateFile(nodeFile)
	if err != nil {
		return nil, err
	}
	zipf := rand.NewZipf(rng, 1.2, 1.0, NodeFanout-1)
	buf := make([]byte, 0, 1<<20)
	rec := make([]byte, NodeRecordSize)
	off := int64(0)
	for i := 0; i < n; i++ {
		deg := int(zipf.Uint64()) + 1
		for j := range rec {
			rec[j] = 0
		}
		binary.LittleEndian.PutUint32(rec[0:4], uint32(deg))
		for j := 0; j < deg; j++ {
			binary.LittleEndian.PutUint32(rec[4+4*j:], uint32(rng.Intn(n)))
		}
		buf = append(buf, rec...)
		if len(buf) >= 1<<20 {
			if err := f.Write(h.Proc(), off, buf); err != nil {
				return nil, err
			}
			off += int64(len(buf))
			buf = buf[:0]
			if err := f.Flush(h.Proc()); err != nil {
				return nil, err
			}
		}
	}
	if len(buf) > 0 {
		if err := f.Write(h.Proc(), off, buf); err != nil {
			return nil, err
		}
		if err := f.Flush(h.Proc()); err != nil {
			return nil, err
		}
	}
	return &Store{sys: h.System(), file: f, Nodes: n}, nil
}

// decodeStep picks the walk's next node from a record: neighbor
// (hop*2654435761+walkSeed) mod degree — deterministic per (walk, hop).
func decodeStep(rec []byte, walkSeed, hop int) (next int, ok bool) {
	deg := int(binary.LittleEndian.Uint32(rec[0:4]))
	if deg <= 0 {
		return 0, false
	}
	if deg > NodeFanout {
		deg = NodeFanout
	}
	pick := (hop*2654435761 + walkSeed) % deg
	if pick < 0 {
		pick += deg
	}
	return int(binary.LittleEndian.Uint32(rec[4+4*pick:])), true
}

// WalkResult summarizes one traversal set.
type WalkResult struct {
	Walks    int
	Hops     int64
	FinalSum int64 // checksum over walk endpoints (for Conv/NDP agreement)
}

// ChaseConv performs the pointer-chasing benchmark on the host: every
// hop is a conventional read across the NVMe interface plus host-side
// traversal logic that slows under memory contention. rng picks the
// walk start nodes; give ChaseNDP a seed drawn from the same source to
// compare like with like.
func (s *Store) ChaseConv(h *biscuit.Host, walks, hops int, rng *rand.Rand) (WalkResult, error) {
	plat := s.sys.Plat
	res := WalkResult{Walks: walks}
	rec := make([]byte, NodeRecordSize)
	// Host-side per-hop traversal work (record decode, next-address
	// computation), subject to the load factor.
	hopCycles := 20000.0 // 8 us at 2.5 GHz
	for w := 0; w < walks; w++ {
		node := rng.Intn(s.Nodes)
		for hp := 0; hp < hops; hp++ {
			segs, err := s.file.Segments(int64(node)*NodeRecordSize, NodeRecordSize)
			if err != nil {
				return res, err
			}
			plat.HostIF.Read(h.Proc(), segs[0].FTLOff, rec)
			plat.HostCPU.Exec(h.Proc(), hopCycles*plat.LoadFactor())
			res.Hops++
			next, ok := decodeStep(rec, w, hp)
			if !ok {
				break
			}
			node = next
		}
		res.FinalSum += int64(node)
	}
	return res, nil
}

// chaserArgs parameterizes the device-side walker.
type chaserArgs struct {
	Nodes, Walks, Hops int
	Seed               int64
}

// ModuleName is the pointer-chasing SSDlet module.
const ModuleName = "graphchase.slet"

// ChaserID is the SSDlet class id.
const ChaserID = "idChaser"

type chaserLet struct{}

func (chaserLet) Spec() biscuit.Spec {
	return biscuit.Spec{Out: []biscuit.SpecType{biscuit.PacketPort}}
}

func (chaserLet) Run(c *biscuit.Context) error {
	args, ok := c.Arg(0).(chaserArgs)
	if !ok {
		return fmt.Errorf("graph: chaser needs chaserArgs, got %T", c.Arg(0))
	}
	out, err := biscuit.Out[biscuit.Packet](c, 0)
	if err != nil {
		return err
	}
	f, err := c.OpenFile(nodeFile, isfs.ReadOnly)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(args.Seed))
	res := WalkResult{Walks: args.Walks}
	rec := make([]byte, NodeRecordSize)
	for w := 0; w < args.Walks; w++ {
		node := rng.Intn(args.Nodes)
		for hp := 0; hp < args.Hops; hp++ {
			if _, err := c.ReadFile(f, int64(node)*NodeRecordSize, rec); err != nil {
				return err
			}
			c.Compute(3000) // 4 us at 750 MHz: record decode on the device
			res.Hops++
			next, ok := decodeStep(rec, w, hp)
			if !ok {
				break
			}
			node = next
		}
		res.FinalSum += int64(node)
	}
	pkt, err := biscuit.Encode(res)
	if err != nil {
		return err
	}
	if !out.Put(pkt) {
		return fmt.Errorf("graph: walk result dropped: output port closed")
	}
	return nil
}

// Image returns the installable chaser module.
func Image() *biscuit.ModuleImage {
	return biscuit.NewModule(ModuleName, 32<<10).
		RegisterSSDLet(ChaserID, func() biscuit.SSDlet { return chaserLet{} })
}

// ChaseNDP performs the same traversal entirely inside the SSD: the
// data-dependent loop never crosses the host interface, so each hop
// costs the internal read latency and is insensitive to host load.
// Unlike the host-side APIs, it takes a seed rather than a *rand.Rand:
// the walker runs device-side and its arguments cross the host/device
// boundary as serialized values, so the seed is the random state.
func (s *Store) ChaseNDP(h *biscuit.Host, walks, hops int, seed int64) (WalkResult, error) {
	return biscuit.Call[WalkResult](h.SSD(), ModuleName, ChaserID,
		chaserArgs{Nodes: s.Nodes, Walks: walks, Hops: hops, Seed: seed})
}
