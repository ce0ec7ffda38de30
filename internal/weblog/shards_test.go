package weblog

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"biscuit"
)

func TestGenerateShardsPartitionsAndReplicates(t *testing.T) {
	// Three shards so the planted lines (every 50th) hit every shard —
	// with two, 49+50k is always odd and needles alias onto one shard.
	const needle = "XNEEDLEX"
	const n = 3
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	ms := biscuit.NewMultiSystem(cfg, n)
	var planted int64
	shard := make([]int64, n)
	replica := make([]int64, n)
	ms.Run(func(h *biscuit.MultiHost) {
		hosts := make([]*biscuit.Host, n)
		for i := range hosts {
			hosts[i] = h.Unit(i)
		}
		var err error
		_, planted, err = GenerateShards(hosts, 1<<20, needle, 50, biscuit.SeededRand(5), true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if shard[i], err = SearchNDPIn(hosts[i], LogFile, needle); err != nil {
				t.Fatal(err)
			}
			if replica[i], err = SearchConvIn(hosts[i], ReplicaFile, needle); err != nil {
				t.Fatal(err)
			}
		}
	})
	if planted == 0 {
		t.Fatal("no needles planted")
	}
	var sum int64
	for i := 0; i < n; i++ {
		if shard[i] == 0 {
			t.Fatalf("shard %d got no needles; round-robin striping broken", i)
		}
		sum += shard[i]
		// Device (i+1)%n's replica file mirrors shard i's slice exactly.
		if replica[(i+1)%n] != shard[i] {
			t.Fatalf("replica of shard %d counts %d needles, shard holds %d",
				i, replica[(i+1)%n], shard[i])
		}
	}
	if sum != planted {
		t.Fatalf("shard counts sum to %d, planted %d", sum, planted)
	}
}

// The seed-5 corpus (1 MiB, needle every 50 lines), pinned at the commit
// before Generate became the 1-way GenerateShards: its size, its planted
// needles and the SHA-256 of its bytes.
const (
	pinnedCorpusSize    = 1048625
	pinnedCorpusPlanted = 225
	pinnedCorpusSHA     = "bac17dd31f19cd1d3975a1a2d8886ce7c2ccea51bb07a9b6ab3b9ee7b58e6e92"
)

// readCorpus returns the full contents of one of a host's corpus files.
func readCorpus(t *testing.T, h *biscuit.Host, name string) []byte {
	t.Helper()
	f, err := h.SSD().OpenFile(name, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.Size())
	if err := h.SSD().ReadFileConv(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestGenerateShardsMatchesGenerateDraws(t *testing.T) {
	// Routing consumes no randomness: the single-device corpus and the
	// line-interleaved union of a 3-way sharded one are the same bytes,
	// and both are the bytes Generate wrote before it delegated to
	// GenerateShards.
	const needle = "XNEEDLEX"
	check := func(what string, size, planted int64, corpus []byte) {
		t.Helper()
		if size != pinnedCorpusSize || planted != pinnedCorpusPlanted {
			t.Fatalf("%s: size %d planted %d, pinned %d / %d", what, size, planted, pinnedCorpusSize, pinnedCorpusPlanted)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(corpus)); got != pinnedCorpusSHA {
			t.Fatalf("%s: corpus sha %s, pinned %s", what, got, pinnedCorpusSHA)
		}
	}
	sys := newSys()
	sys.Run(func(h *biscuit.Host) {
		size, planted, err := Generate(h, 1<<20, needle, 50, biscuit.SeededRand(5))
		if err != nil {
			t.Fatal(err)
		}
		check("Generate", size, planted, readCorpus(t, h, LogFile))
	})
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	const n = 3
	ms := biscuit.NewMultiSystem(cfg, n)
	ms.Run(func(h *biscuit.MultiHost) {
		hosts := []*biscuit.Host{h.Unit(0), h.Unit(1), h.Unit(2)}
		size, planted, err := GenerateShards(hosts, 1<<20, needle, 50, biscuit.SeededRand(5), false)
		if err != nil {
			t.Fatal(err)
		}
		// Line i went to shard i%n: deal the shards' lines back out.
		var lines [n][][]byte
		for i := range hosts {
			lines[i] = bytes.SplitAfter(readCorpus(t, hosts[i], LogFile), []byte("\n"))
		}
		var corpus []byte
		for i := 0; ; i++ {
			shard := lines[i%n]
			if i/n >= len(shard) || len(shard[i/n]) == 0 { // SplitAfter ends on an empty piece
				break
			}
			corpus = append(corpus, shard[i/n]...)
		}
		check("GenerateShards x3", size, planted, corpus)
	})
}
