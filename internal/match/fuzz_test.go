package match

import (
	"bytes"
	"testing"
)

// FuzzStreamEqualsWholeScan: splitting arbitrary data at an arbitrary
// point must find exactly the same matches as scanning it whole, and
// must agree with the Boyer-Moore baseline.
func FuzzStreamEqualsWholeScan(f *testing.F) {
	f.Add([]byte("xxneedlexxneedle"), []byte("needle"), 5)
	f.Add([]byte("aaaa"), []byte("aa"), 2)
	f.Add([]byte(""), []byte("k"), 0)
	f.Fuzz(func(t *testing.T, data []byte, pat []byte, split int) {
		if len(pat) == 0 || len(pat) > 16 {
			return
		}
		a, err := Compile([][]byte{pat})
		if err != nil {
			t.Fatal(err)
		}
		whole := a.Count(data)

		if split < 0 {
			split = -split
		}
		if len(data) > 0 {
			split %= len(data) + 1
		} else {
			split = 0
		}
		s := a.NewStream()
		n := 0
		s.Feed(data[:split], func(Match) { n++ })
		s.Feed(data[split:], func(Match) { n++ })
		if n != whole {
			t.Fatalf("split at %d found %d, whole scan %d", split, n, whole)
		}
		if bm := NewHorspool(pat).Count(data); bm != whole {
			t.Fatalf("aho-corasick %d vs boyer-moore %d", whole, bm)
		}
		if got := bytes.Count(data, pat); !overlapping(pat) && got != whole {
			t.Fatalf("stdlib count %d vs %d", got, whole)
		}
	})
}

// overlapping reports whether pat can overlap itself (stdlib Count is
// non-overlapping, so only compare when overlap is impossible).
func overlapping(pat []byte) bool {
	for k := 1; k < len(pat); k++ {
		if bytes.Equal(pat[:len(pat)-k], pat[k:]) {
			return true
		}
	}
	return false
}

// FuzzMultiKeyEqualsNaive: for one to three keys of at most 16 bytes and
// any chunking — chunk lengths come from the fuzzer, one byte of cuts
// per chunk, so length 1 and length 0 both occur — the stream's
// (Pos, Key) multiset, Count and Contains equal the naive oracle's.
// k2 and k3 may be empty (fewer keys).
func FuzzMultiKeyEqualsNaive(f *testing.F) {
	for _, c := range multiKeySeeds {
		k := append(append([][]byte{}, c.keys...), nil, nil)
		cuts := make([]byte, len(c.chunks))
		for i, n := range c.chunks {
			cuts[i] = byte(n)
		}
		f.Add([]byte(c.text), k[0], k[1], k[2], cuts)
	}
	f.Fuzz(func(t *testing.T, text, k1, k2, k3, cuts []byte) {
		var keys [][]byte
		for _, k := range [][]byte{k1, k2, k3} {
			if len(k) > MaxKeyLen {
				return
			}
			if len(k) > 0 {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return
		}
		chunks := make([]int, len(cuts))
		for i, c := range cuts {
			chunks[i] = int(c)
		}
		checkAgainstNaive(t, keys, text, chunks)
	})
}
