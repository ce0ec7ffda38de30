package weblog

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"biscuit"
)

// The corpus is a pure function of (size, needle, needleEvery, rng
// state), and these digests pin it byte for byte. They were recorded
// with the fmt.Sprintf line formatter, before the generator appended
// its lines into the sink buffers: a formatting slip that stays
// run-to-run deterministic passes TestGenerateDeterministic but not
// this test.
const (
	goldenSize    = 1048653
	goldenPlanted = 176
	goldenSHA     = "3cb367afa39b4f1ed370a6a3a4e7f6f59b433f39ba4bcf1758d746ad4095cda2"

	// The 3-shard, replicated corpus: each shard's LogFile then its
	// ReplicaFile, shard 0 first.
	goldenShardsSHA = "cb9f7d5eefb974d0185f2a99306d3676d1b109f3202ae33804203a55dd0f9102"
)

func TestCorpusGolden(t *testing.T) {
	const needle = "XNEEDLEX"
	check := func(what string, size, planted int64, sum [sha256.Size]byte, want string) {
		t.Helper()
		if size != goldenSize || planted != goldenPlanted {
			t.Errorf("%s: size %d planted %d, pinned %d / %d", what, size, planted, goldenSize, goldenPlanted)
		}
		if got := fmt.Sprintf("%x", sum); got != want {
			t.Errorf("%s: corpus sha %s, pinned %s", what, got, want)
		}
	}
	newSys().Run(func(h *biscuit.Host) {
		size, planted, err := Generate(h, 1<<20, needle, 64, biscuit.SeededRand(5))
		if err != nil {
			t.Fatal(err)
		}
		check("Generate", size, planted, sha256.Sum256(readCorpus(t, h, LogFile)), goldenSHA)
	})
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	const n = 3
	biscuit.NewMultiSystem(cfg, n).Run(func(h *biscuit.MultiHost) {
		hosts := []*biscuit.Host{h.Unit(0), h.Unit(1), h.Unit(2)}
		size, planted, err := GenerateShards(hosts, 1<<20, needle, 64, biscuit.SeededRand(5), true)
		if err != nil {
			t.Fatal(err)
		}
		d := sha256.New()
		for _, host := range hosts {
			d.Write(readCorpus(t, host, LogFile))
			d.Write(readCorpus(t, host, ReplicaFile))
		}
		check("GenerateShards x3 replicated", size, planted, [sha256.Size]byte(d.Sum(nil)), goldenShardsSHA)
	})
}
