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
	"strconv"

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
	// spill flushes a sink once it holds 1 MiB.
	spill := func(s *sink) error {
		if len(s.buf) < 1<<20 {
			return nil
		}
		return flush(s)
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
		// The draws run in the order the line's fields are written.
		ua := agents[rng.Intn(len(agents))]
		if needleEvery > 0 && line%needleEvery == needleEvery-1 {
			ua = needle
			planted++
		}
		ip1, ip2, ip3 := rng.Intn(256), rng.Intn(256), rng.Intn(256)
		day, hour, minute, sec := 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60)
		method, path := methods[rng.Intn(len(methods))], paths[rng.Intn(len(paths))]
		status, respBytes := 200+rng.Intn(4)*100, rng.Intn(100000)

		k := line % n
		p := prim[k]
		start := len(p.buf)
		b := append(p.buf, "10."...)
		b = strconv.AppendInt(b, int64(ip1), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(ip2), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(ip3), 10)
		b = append(b, " - - ["...)
		b = append2(b, day)
		b = append(b, "/Jul/1995:"...)
		b = append2(b, hour)
		b = append(b, ':')
		b = append2(b, minute)
		b = append(b, ':')
		b = append2(b, sec)
		b = append(b, "] \""...)
		b = append(b, method...)
		b = append(b, ' ')
		b = append(b, path...)
		b = append(b, " HTTP/1.0\" "...)
		b = strconv.AppendInt(b, int64(status), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(respBytes), 10)
		b = append(b, " \""...)
		b = append(b, ua...)
		b = append(b, "\"\n"...)
		p.buf = b
		var r *sink
		if replicate {
			r = repl[(k+1)%n]
			r.buf = append(r.buf, b[start:]...)
		}
		if err := spill(p); err != nil {
			return 0, 0, err
		}
		if r != nil {
			if err := spill(r); err != nil {
				return 0, 0, err
			}
		}
		total += int64(len(b) - start)
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

// append2 appends v (0 <= v < 100) as two decimal digits.
func append2(b []byte, v int) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}

// SearchConv scans the corpus on the host like grep: chunked
// conventional reads at queue depth, then Boyer–Moore over each chunk
// through the contended memory system. Returns the match count.
func SearchConv(h *biscuit.Host, needle string) (int64, error) {
	return SearchConvIn(h, LogFile, needle)
}

// SearchConvIn is SearchConv over an arbitrary corpus file. An empty
// needle is an error wrapping match.ErrEmptyKey, as on the NDP path.
func SearchConvIn(h *biscuit.Host, file, needle string) (int64, error) {
	if needle == "" {
		return 0, fmt.Errorf("weblog: conv search of %s: %w", file, match.ErrEmptyKey)
	}
	f, err := h.SSD().OpenFile(file, true)
	if err != nil {
		return 0, err
	}
	plat := h.System().Plat
	const chunkSize = 1 << 20
	// Each read lands after the previous chunk's last len(needle)-1
	// bytes, carried to catch straddling matches. Those bytes are
	// shorter than the needle, so no match lies wholly inside them and
	// none is counted twice.
	buf := make([]byte, chunkSize+len(needle)-1)
	var count int64
	size := f.Size()
	bm := match.NewHorspool([]byte(needle))
	overlap := 0
	for off := int64(0); off < size; {
		n := chunkSize
		if rem := size - off; int64(n) > rem {
			n = int(rem)
		}
		if err := h.SSD().ReadFileConvAsync(f, off, buf[overlap:overlap+n], 256<<10, 16); err != nil {
			return 0, err
		}
		data := buf[:overlap+n]
		count += int64(bm.Count(data))
		plat.HostScan(h.Proc(), int64(len(data)), grepCyclesPerByte)
		overlap = min(len(needle)-1, len(data))
		copy(buf, data[len(data)-overlap:])
		off += int64(n)
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
