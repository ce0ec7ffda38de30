// Package weblog implements the simple string search application of the
// paper (§V-C, Table V): searching a large web-log compilation for
// keywords, either with host software (Linux grep's Boyer–Moore) or with
// the SSD's per-channel hardware pattern matcher via the built-in
// scanner SSDlet.
//
// Substitution (DESIGN.md): the paper's corpus is 7.8 GiB of real web
// logs; we generate Apache-combined-format log lines with planted
// needles at a configurable volume. Conv cost is dominated by per-byte
// host scanning (load-sensitive), Biscuit by SSD-internal streaming
// (load-insensitive) — the mechanism behind Table V's 5.3–8.3× gap.
package weblog

import (
	"fmt"
	"math/rand"

	"biscuit"
	"biscuit/internal/match"
)

// LogFile is the corpus file name.
const LogFile = "web/access.log"

// ReplicaFile is where GenerateShards mirrors the previous shard's
// slice when replication is on, so a degraded shard's search traffic
// can re-home to its successor device.
const ReplicaFile = "web/access_r.log"

// grepCyclesPerByte models single-threaded Boyer–Moore over cached
// pages: calibrated so an unloaded host scans ~0.64 GB/s, matching the
// paper's 7.8 GiB / 12.2 s Conv measurement.
const grepCyclesPerByte = 3.9

var (
	methods = []string{"GET", "POST", "PUT", "HEAD"}
	paths   = []string{"/index.html", "/api/v1/items", "/static/app.js", "/img/logo.png", "/checkout", "/search?q=ndp"}
	agents  = []string{"Mozilla/5.0", "curl/7.64", "Googlebot/2.1", "safari/605"}
)

// Generate writes approximately size bytes of log lines, planting the
// needle string every needleEvery lines (0 = never). It returns the
// actual corpus size and the number of planted needles. The caller
// injects the seeded rng, so the corpus is a pure function of
// (size, needle, needleEvery, rng state). It is the 1-way,
// non-replicated GenerateShards.
func Generate(h *biscuit.Host, size int64, needle string, needleEvery int, rng *rand.Rand) (int64, int64, error) {
	return GenerateShards([]*biscuit.Host{h}, size, needle, needleEvery, rng, false)
}

// GenerateShards writes one corpus of approximately size bytes total,
// striped line-round-robin across the hosts' devices (line i goes to
// shard i%N under LogFile). With replicate set, each line is also
// mirrored to the next shard's ReplicaFile, giving the serving layer a
// one-hop fallback copy for tenant migration. Routing consumes no
// randomness, so the corpus (the shards' lines, interleaved) depends
// only on (size, needle, needleEvery, rng state), not on the shard
// count.
func GenerateShards(hosts []*biscuit.Host, size int64, needle string, needleEvery int, rng *rand.Rand, replicate bool) (int64, int64, error) {
	n := len(hosts)
	if n == 0 {
		return 0, 0, fmt.Errorf("weblog: GenerateShards needs at least one host")
	}
	type sink struct {
		h   *biscuit.Host
		f   *biscuit.File
		off int64
		buf []byte
	}
	open := func(name string) ([]*sink, error) {
		ss := make([]*sink, n)
		for i, h := range hosts {
			f, err := h.SSD().CreateFile(name)
			if err != nil {
				return nil, err
			}
			ss[i] = &sink{h: h, f: f, buf: make([]byte, 0, 1<<20)}
		}
		return ss, nil
	}
	flush := func(s *sink) error {
		if len(s.buf) == 0 {
			return nil
		}
		if err := s.f.Write(s.h.Proc(), s.off, s.buf); err != nil {
			return err
		}
		s.off += int64(len(s.buf))
		s.buf = s.buf[:0]
		return s.f.Flush(s.h.Proc())
	}
	prim, err := open(LogFile)
	if err != nil {
		return 0, 0, err
	}
	var repl []*sink
	if replicate {
		if repl, err = open(ReplicaFile); err != nil {
			return 0, 0, err
		}
	}
	var total, planted int64
	line := 0
	for total < size {
		ua := agents[rng.Intn(len(agents))]
		if needleEvery > 0 && line%needleEvery == needleEvery-1 {
			ua = needle
			planted++
		}
		rec := fmt.Sprintf("10.%d.%d.%d - - [%02d/Jul/1995:%02d:%02d:%02d] \"%s %s HTTP/1.0\" %d %d \"%s\"\n",
			rng.Intn(256), rng.Intn(256), rng.Intn(256),
			1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			methods[rng.Intn(len(methods))], paths[rng.Intn(len(paths))],
			200+rng.Intn(4)*100, rng.Intn(100000), ua)
		k := line % n
		targets := []*sink{prim[k]}
		if replicate {
			targets = append(targets, repl[(k+1)%n])
		}
		for _, s := range targets {
			s.buf = append(s.buf, rec...)
			if len(s.buf) >= 1<<20 {
				if err := flush(s); err != nil {
					return 0, 0, err
				}
			}
		}
		total += int64(len(rec))
		line++
	}
	for _, s := range prim {
		if err := flush(s); err != nil {
			return 0, 0, err
		}
	}
	for _, s := range repl {
		if err := flush(s); err != nil {
			return 0, 0, err
		}
	}
	return total, planted, nil
}

// SearchConv scans the corpus on the host like grep: chunked
// conventional reads at queue depth, then Boyer–Moore over each chunk
// through the contended memory system. Returns the match count.
func SearchConv(h *biscuit.Host, needle string) (int64, error) {
	return SearchConvIn(h, LogFile, needle)
}

// SearchConvIn is SearchConv over an arbitrary corpus file.
func SearchConvIn(h *biscuit.Host, file, needle string) (int64, error) {
	f, err := h.SSD().OpenFile(file, true)
	if err != nil {
		return 0, err
	}
	plat := h.System().Plat
	const chunkSize = 1 << 20
	buf := make([]byte, chunkSize+64)
	var count int64
	size := f.Size()
	bm := match.NewHorspool([]byte(needle))
	overlap := 0
	for off := int64(0); off < size; {
		n := chunkSize
		if rem := size - off; int64(n) > rem {
			n = int(rem)
		}
		// Carry the previous chunk's tail to catch straddling matches.
		if err := h.SSD().ReadFileConvAsync(f, off, buf[overlap:overlap+n], 256<<10, 16); err != nil {
			return 0, err
		}
		data := buf[:overlap+n]
		count += int64(bm.Count(data))
		plat.HostScan(h.Proc(), int64(len(data)), grepCyclesPerByte)
		keep := len(needle) - 1
		if keep > len(data) {
			keep = len(data)
		}
		copy(buf, data[len(data)-keep:])
		overlap = keep
		off += int64(n)
		// Subtract matches that were fully inside the carried tail to
		// avoid double counting.
		if keep > 0 && off < size {
			count -= int64(bm.Count(buf[:keep]))
		}
	}
	return count, nil
}

// SearchNDP scans the corpus with the hardware pattern matcher via the
// built-in scanner SSDlet and returns the match count.
func SearchNDP(h *biscuit.Host, needles ...string) (int64, error) {
	return SearchNDPIn(h, LogFile, needles...)
}

// SearchNDPIn is SearchNDP over an arbitrary corpus file.
func SearchNDPIn(h *biscuit.Host, file string, needles ...string) (int64, error) {
	res, err := biscuit.Call[biscuit.ScanResult](h.SSD(), biscuit.BuiltinModule, biscuit.ScannerID,
		biscuit.ScanArgs{File: file, Keys: needles, Mode: biscuit.ScanCount})
	return res.Matches, err
}
