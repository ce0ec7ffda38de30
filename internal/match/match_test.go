package match

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestValidateHW(t *testing.T) {
	ok := [][]byte{[]byte("a"), []byte("sixteen-bytes..!"), []byte("k")}
	if err := ValidateHW(ok); err != nil {
		t.Fatal(err)
	}
	if err := ValidateHW([][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}); !errors.Is(err, ErrTooManyKeys) {
		t.Fatalf("err=%v", err)
	}
	if err := ValidateHW([][]byte{[]byte("seventeen bytes!!")}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("err=%v", err)
	}
	if err := ValidateHW(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err=%v", err)
	}
}

func TestSingleKeyMatches(t *testing.T) {
	a := MustCompile("needle")
	text := []byte("haystack needle haystack needleneedle")
	var got []int64
	s := a.NewStream()
	s.Feed(text, func(m Match) { got = append(got, m.Pos) })
	want := []int64{9, 25, 31}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMultiKeyAndOverlap(t *testing.T) {
	a := MustCompile("he", "she", "hers")
	var got []Match
	s := a.NewStream()
	s.Feed([]byte("ushers"), func(m Match) { got = append(got, m) })
	// "she" at 1, "he" at 2, "hers" at 2.
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestStreamingAcrossChunkBoundary(t *testing.T) {
	a := MustCompile("boundary")
	text := []byte("xxxxboundaryxxxx")
	for split := 1; split < len(text); split++ {
		s := a.NewStream()
		var got []int64
		s.Feed(text[:split], func(m Match) { got = append(got, m.Pos) })
		s.Feed(text[split:], func(m Match) { got = append(got, m.Pos) })
		if len(got) != 1 || got[0] != 4 {
			t.Fatalf("split=%d got=%v", split, got)
		}
	}
}

func TestStreamResetAndPos(t *testing.T) {
	a := MustCompile("ab")
	s := a.NewStream()
	s.Feed([]byte("ab"), func(Match) {})
	if s.Pos() != 2 {
		t.Fatalf("pos=%d", s.Pos())
	}
	s.Reset(100)
	var got []int64
	s.Feed([]byte("ab"), func(m Match) { got = append(got, m.Pos) })
	if len(got) != 1 || got[0] != 100 {
		t.Fatalf("got=%v, want [100]", got)
	}
}

func TestContainsAndCount(t *testing.T) {
	a := MustCompile("1995-01-17", "1995-01-18")
	text := []byte("row|1995-01-17|x\nrow|1995-02-03|y\nrow|1995-01-18|z\n")
	if !a.Contains(text) {
		t.Fatal("should contain")
	}
	if n := a.Count(text); n != 2 {
		t.Fatalf("count=%d", n)
	}
	if a.Contains([]byte("nothing here")) {
		t.Fatal("false positive")
	}
}

func TestHorspoolAgainstBytesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(500) + 10
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.Intn(4))
		}
		m := rng.Intn(6) + 1
		pat := make([]byte, m)
		for i := range pat {
			pat[i] = byte('a' + rng.Intn(4))
		}
		h := NewHorspool(pat)
		got := h.FindAll(text)
		// Reference: scan with bytes.Index repeatedly (overlapping).
		var want []int
		for i := 0; i+m <= n; i++ {
			if bytes.Equal(text[i:i+m], pat) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
		if h.Count(text) != len(want) {
			t.Fatalf("count mismatch")
		}
		if h.Contains(text) != (len(want) > 0) {
			t.Fatalf("contains mismatch")
		}
	}
}

// TestHorspoolOwnsItsPattern: a caller reusing its pattern buffer after
// NewHorspool must not change what the matcher finds.
func TestHorspoolOwnsItsPattern(t *testing.T) {
	text := []byte("xneedle needle nee xxxxxxx")
	pat := []byte("needle")
	h := NewHorspool(pat)
	count, all := h.Count(text), h.FindAll(text)
	copy(pat, "zzzzzz")
	if got := h.Count(text); got != count || count != 2 {
		t.Fatalf("Count after the caller's buffer changed: %d, want %d (2)", got, count)
	}
	if got := h.FindAll(text); !reflect.DeepEqual(got, all) || !reflect.DeepEqual(all, []int{1, 8}) {
		t.Fatalf("FindAll after the caller's buffer changed: %v, want %v ([1 8])", got, all)
	}
}

func TestAutomatonEqualsHorspoolProperty(t *testing.T) {
	prop := func(textRaw []byte, patRaw []byte) bool {
		if len(patRaw) == 0 {
			patRaw = []byte{'x'}
		}
		if len(patRaw) > 8 {
			patRaw = patRaw[:8]
		}
		// Constrain alphabet so matches actually occur.
		text := make([]byte, len(textRaw))
		for i, b := range textRaw {
			text[i] = 'a' + b%3
		}
		pat := make([]byte, len(patRaw))
		for i, b := range patRaw {
			pat[i] = 'a' + b%3
		}
		a, err := Compile([][]byte{pat})
		if err != nil {
			return false
		}
		return a.Count(text) == NewHorspool(pat).Count(text)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamChunkingInvariantProperty(t *testing.T) {
	// Matches found must be independent of how the stream is chunked.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text := make([]byte, 2000)
		for i := range text {
			text[i] = byte('a' + rng.Intn(3))
		}
		a := MustCompile("abc", "cab", "aa")
		whole := a.Count(text)
		s := a.NewStream()
		n := 0
		for off := 0; off < len(text); {
			sz := rng.Intn(97) + 1
			if off+sz > len(text) {
				sz = len(text) - off
			}
			s.Feed(text[off:off+sz], func(Match) { n++ })
			off += sz
		}
		return n == whole
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsEmpty(t *testing.T) {
	if _, err := Compile(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err=%v", err)
	}
	if _, err := Compile([][]byte{{}}); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err=%v", err)
	}
}

// naive is the reference every kernel test compares against: a
// bytes.HasPrefix at every position, for every key.
func naive(keys [][]byte, text []byte) []Match {
	var out []Match
	for pos := range text {
		for ki, k := range keys {
			if bytes.HasPrefix(text[pos:], k) {
				out = append(out, Match{Pos: int64(pos), Key: ki})
			}
		}
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Pos != ms[j].Pos {
			return ms[i].Pos < ms[j].Pos
		}
		return ms[i].Key < ms[j].Key
	})
}

// checkAgainstNaive feeds text in chunks of the given lengths (cycled;
// the remainder goes in one last chunk once they run out) and holds
// Feed's (Pos, Key) multiset, Count and Contains against the oracle.
func checkAgainstNaive(t *testing.T, keys [][]byte, text []byte, chunks []int) {
	t.Helper()
	a, err := Compile(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := naive(keys, text)
	var got []Match
	s := a.NewStream()
	rest := text
	for _, n := range chunks {
		n = min(max(n, 0), len(rest))
		s.Feed(rest[:n], func(m Match) { got = append(got, m) })
		rest = rest[n:]
	}
	s.Feed(rest, func(m Match) { got = append(got, m) })
	sortMatches(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %q text %q chunks %v:\n got %v\nwant %v", keys, text, chunks, got, want)
	}
	if s.Pos() != int64(len(text)) {
		t.Fatalf("pos %d after %d bytes", s.Pos(), len(text))
	}
	if n := a.Count(text); n != len(want) {
		t.Fatalf("keys %q text %q: Count %d, oracle %d", keys, text, n, len(want))
	}
	if c := a.Contains(text); c != (len(want) > 0) {
		t.Fatalf("keys %q text %q: Contains %v, oracle has %d", keys, text, c, len(want))
	}
}

func bs(keys ...string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}

// multiKeySeeds are the shapes the skip loop and the accept-ordered
// numbering could get wrong; FuzzMultiKeyEqualsNaive starts from them.
var multiKeySeeds = []struct {
	name   string
	keys   [][]byte
	text   string
	chunks []int
}{
	{"shared first byte", bs("1994-", "1995-", "19"), "x1994-1995-0199|1993-19", []int{4, 4}},
	{"he she hers", bs("he", "she", "hers"), "ushers she hehers", []int{3}},
	{"key is a suffix of another", bs("needle", "dle", "e"), "a needle in the needledle", []int{9, 1, 1}},
	{"text made only of first bytes", bs("ab", "ba", "cc"), "abcabcaabbccbacbcbca", []int{1, 1, 1, 1, 1, 1, 1, 1}},
	{"alternation", bs("1994-"), strings.Repeat("1x", 40) + "1994-" + strings.Repeat("1x", 9), []int{7, 2}},
	{"key straddles three chunks", bs("straddle"), "xxstraddlexx", []int{4, 3, 3}},
	{"chunk boundary inside a skip", bs("Q", "ZZ"), strings.Repeat(".", 50) + "Q" + strings.Repeat(".", 50) + "ZZ", []int{20, 20, 20, 50}},
	{"chunks of one byte", bs("aa", "aaa"), "aaaaaa", []int{1, 1, 1, 1, 1, 1}},
	{"duplicate keys", bs("dup", "dup"), "dupdup", nil},
	{"accept on the last byte then more", bs("ab"), "ab" + "ab", []int{2}},
}

func TestMultiKeyEqualsNaive(t *testing.T) {
	for _, c := range multiKeySeeds {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstNaive(t, c.keys, []byte(c.text), c.chunks)
			// And at every single split point.
			for split := 0; split <= len(c.text); split++ {
				checkAgainstNaive(t, c.keys, []byte(c.text), []int{split})
			}
		})
	}
}

func TestMultiKeyEqualsNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		alpha := 2 + rng.Intn(3)
		keys := make([][]byte, 1+rng.Intn(MaxKeys))
		for i := range keys {
			n := 1 + rng.Intn(MaxKeyLen)
			if rng.Intn(2) == 0 { // short keys actually occur
				n = 1 + rng.Intn(3)
			}
			keys[i] = make([]byte, n)
			for j := range keys[i] {
				keys[i][j] = byte('a' + rng.Intn(alpha))
			}
		}
		text := make([]byte, rng.Intn(600))
		for i := range text {
			text[i] = byte('a' + rng.Intn(alpha+1)) // one byte no key starts with
		}
		var chunks []int
		for n := rng.Intn(8); n > 0; n-- {
			chunks = append(chunks, rng.Intn(100))
		}
		checkAgainstNaive(t, keys, text, chunks)
	}
}

func TestCompileCopiesKeys(t *testing.T) {
	keys := bs("needle", "pin")
	text := []byte("a needle, a pin, a noodle")
	a, err := Compile(keys)
	if err != nil {
		t.Fatal(err)
	}
	want := naive(keys, text)
	copy(keys[0], "noodle")
	keys[1] = []byte("zzz")
	var got []Match
	a.NewStream().Feed(text, func(m Match) { got = append(got, m) })
	sortMatches(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after mutating Compile's argument: got %v want %v", got, want)
	}
	if !a.Contains([]byte("pin")) || a.Contains([]byte("noodle")) || a.Count(text) != len(want) {
		t.Fatal("Contains/Count follow the caller's slices, not the compiled keys")
	}
	if k := a.Keys(); string(k[0]) != "needle" || string(k[1]) != "pin" {
		t.Fatalf("Keys() = %q", k)
	}
}

func TestCompileRejectsOversizedKeySet(t *testing.T) {
	if _, err := Compile([][]byte{make([]byte, 1<<16)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err=%v", err)
	}
	big := make([]byte, 1<<16-1)
	for i := range big {
		big[i] = byte(i)
	}
	a, err := Compile([][]byte{big})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Contains(append([]byte("xx"), big...)) || a.Contains(big[1:]) {
		t.Fatal("65536-state automaton mismatches")
	}
}

// The scan loop sits under every simulated page read; it must not
// allocate.
func TestScanDoesNotAllocate(t *testing.T) {
	a := MustCompile("1994-", "1995-", "XNEEDLEX")
	text := []byte(strings.Repeat("10.0.0.1 - - [12/Mar/1994:10:01:02] GET /x1 200 1995-\n", 40))
	hits := 0
	emit := func(Match) { hits++ }
	s := a.NewStream()
	if n := testing.AllocsPerRun(20, func() {
		s.Reset(0)
		s.Feed(text, emit)
		if !a.Contains(text) {
			t.Fatal("no hit")
		}
		hits += a.Count(text)
	}); n != 0 {
		t.Fatalf("%v allocs per scan, want 0", n)
	}
	if hits == 0 {
		t.Fatal("nothing matched")
	}
}

// scanShapes are BenchmarkScan's three texts (key "1994-"): rare —
// web-log lines, a first byte every dozen bytes or so; dense —
// TPC-H-like date/number rows, a first byte every few bytes;
// alternating — "1x1x…", back at the root every other byte.
func scanShapes() map[string][]byte {
	const size = 1 << 20
	rng := rand.New(rand.NewSource(1))
	fill := func(line func() string) []byte {
		var b []byte
		for len(b) < size {
			b = append(b, line()...)
		}
		return b[:size]
	}
	paths := []string{"/index.html", "/img/logo.png", "/api/v2/items", "/search?q=flash", "/cart/checkout"}
	return map[string][]byte{
		"rare": fill(func() string {
			return fmt.Sprintf("%d.%d.%d.%d - - [%02d/Mar/2016:%02d:%02d:%02d +0000] \"GET %s HTTP/1.1\" %d %d\n",
				rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
				paths[rng.Intn(len(paths))], 200+rng.Intn(4)*100, rng.Intn(90000))
		}),
		"dense": fill(func() string {
			return fmt.Sprintf("%d|%d|%d|%d|%d.%02d|0.%02d|0.%02d|N|O|199%d-%02d-%02d|199%d-%02d-%02d|\n",
				rng.Intn(6000000), rng.Intn(200000), rng.Intn(10000), 1+rng.Intn(7), rng.Intn(100000), rng.Intn(100), rng.Intn(11), rng.Intn(9),
				2+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28), 2+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28))
		}),
		"alternating": []byte(strings.Repeat("1x", size/2)),
	}
}

var benchSink int

func BenchmarkScan(b *testing.B) {
	a := MustCompile("1994-")
	shapes := scanShapes()
	for _, name := range []string{"rare", "dense", "alternating"} {
		text := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			s := a.NewStream()
			emit := func(Match) { benchSink++ }
			for i := 0; i < b.N; i++ {
				s.Reset(0)
				for off := 0; off < len(text); off += 16 << 10 {
					s.Feed(text[off:off+16<<10], emit)
				}
			}
		})
	}
}

func BenchmarkCompile(b *testing.B) {
	keys := bs("sixteen-byte-key1", "sixteen-byte-key2", "another-16B-key!")
	for i := range keys {
		keys[i] = keys[i][:MaxKeyLen]
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := Compile(keys)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(a.Keys())
	}
}
