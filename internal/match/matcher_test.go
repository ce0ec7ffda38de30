package match

import (
	"errors"
	"runtime"
	"testing"
)

func TestMatcherCompilesEachKeySetOnce(t *testing.T) {
	m := NewMatcher()
	a, err := m.Compile([]string{"1994-", "AIR"})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Compile([]string{"1994-", "AIR"})
	c, _ := m.Compile([]string{"AIR", "1994-"})
	d, _ := m.Compile([]string{"1994-AIR"})
	if a != b || a == c || a == d || c == d {
		t.Fatalf("same keys must share one automaton, other sets must not: %p %p %p %p", a, b, c, d)
	}
	for _, bad := range []struct {
		keys []string
		want error
	}{
		{nil, ErrEmptyKey},
		{[]string{"a", ""}, ErrEmptyKey},
		{[]string{"a", "b", "c", "d"}, ErrTooManyKeys},
		{[]string{"seventeen bytes!!"}, ErrKeyTooLong},
	} {
		for _, mm := range []*Matcher{m, nil} {
			if _, err := mm.Compile(bad.keys); !errors.Is(err, bad.want) {
				t.Fatalf("Compile(%q) on %p: err %v, want %v", bad.keys, mm, err, bad.want)
			}
		}
	}
}

// TestMatcherRecallsWhatTheAutomatonSays: over pages that hold a key
// and pages that do not, at page and sub-page lengths, ContainsPage
// answers what the automaton answers — on the first judgement and on
// every recall.
func TestMatcherRecallsWhatTheAutomatonSays(t *testing.T) {
	const ps = 16 << 10
	dense := scanShapes()["dense"]
	var pages [][]byte
	for off := 0; off+ps <= len(dense); off += ps {
		pages = append(pages, dense[off:off+ps], dense[off:off+ps/2])
	}
	m := NewMatcher()
	for _, keys := range [][]string{{"1994-03-1"}, {"1998-12-"}, {"1996-11-1", "1997-02-2"}} {
		a, err := m.Compile(keys)
		if err != nil {
			t.Fatal(err)
		}
		ref := MustCompile(keys...)
		hits := 0
		for pass := 0; pass < 2; pass++ {
			for i, pg := range pages {
				want := ref.Contains(pg)
				if got := m.ContainsPage(a, pg); got != want {
					t.Fatalf("%q pass %d page %d: memo says %v, automaton %v", keys, pass, i, got, want)
				}
				if want {
					hits++
				}
			}
		}
		if hits == 0 || hits == 2*len(pages) {
			t.Fatalf("%q: %d of %d judgements hit; the shape tests only one verdict", keys, hits, 2*len(pages))
		}
	}
	if st := m.Stats(); st.Judged != 3*int64(len(pages)) || st.Recalled != st.Judged || st.ScannedBytes != 3*int64(len(pages)/2)*(ps+ps/2) {
		t.Fatalf("stats %+v: want each page judged once per key set and recalled once", st)
	}
}

// TestMatcherNamesPagesByBuffer: a page is its buffer, not its bytes or
// its place. A second buffer with the first one's bytes, or a key the
// first buffer never held, is judged afresh; a view of another length
// or start is another page.
func TestMatcherNamesPagesByBuffer(t *testing.T) {
	m := NewMatcher()
	a, _ := m.Compile([]string{"KEY"})
	old := make([]byte, 64)
	if m.ContainsPage(a, old) {
		t.Fatal("zero page holds no key")
	}
	rewritten := make([]byte, 64)
	copy(rewritten[10:], "KEY")
	if !m.ContainsPage(a, rewritten) {
		t.Fatal("a new buffer inherited the old buffer's verdict")
	}
	m.ContainsPage(a, make([]byte, 64))
	m.ContainsPage(a, old[:32])
	m.ContainsPage(a, old[1:])
	if st := m.Stats(); st.Judged != 5 || st.Recalled != 0 {
		t.Fatalf("stats %+v: every buffer and view is a page of its own", st)
	}
	if !m.ContainsPage(a, rewritten) || m.ContainsPage(a, old) || m.Stats().Recalled != 2 {
		t.Fatalf("stats %+v: the two pages seen whole must be recalled", m.Stats())
	}
	if m.Contains(a, old) || m.Stats().Judged != 6 {
		t.Fatal("Contains must judge, and count, every call")
	}
}

// TestMatcherSweepsReclaimedPages: entries of pages the collector has
// reclaimed go at the next sweep; live pages keep theirs.
func TestMatcherSweepsReclaimedPages(t *testing.T) {
	m := NewMatcher()
	a, _ := m.Compile([]string{"KEY"})
	live := make([]byte, 4096)
	m.ContainsPage(a, live)
	for i := 1; i < minSweep; i++ {
		m.ContainsPage(a, make([]byte, 4096))
	}
	runtime.GC()
	m.ContainsPage(a, make([]byte, 4096)) // the memo is full: this sweeps
	if n := len(m.verdicts); n > 2 {
		t.Fatalf("%d entries after the sweep; want the live page's and the new one's", n)
	}
	if m.ContainsPage(a, live); m.Stats().Recalled != 1 {
		t.Fatal("the live page's verdict was swept")
	}
	runtime.KeepAlive(live)
}

func TestNilMatcherRemembersNothing(t *testing.T) {
	var m *Matcher
	a, err := m.Compile([]string{"KEY"})
	if err != nil {
		t.Fatal(err)
	}
	page := []byte("..KEY..")
	if !m.ContainsPage(a, page) || !m.ContainsPage(a, page) || m.ContainsPage(a, nil) {
		t.Fatal("a nil Matcher must judge like the automaton")
	}
	if m.Stats() != (MatcherStats{}) {
		t.Fatal("a nil Matcher counts nothing")
	}
}

// BenchmarkScanMemo judges 16 KiB lineitem-shaped pages under one key
// set none of them holds: "miss" with an emptied memo (weak pointer,
// lookup, the automaton over the whole page, insert), "hit" from a full
// one (weak pointer and lookup).
func BenchmarkScanMemo(b *testing.B) {
	const ps, npages = 16 << 10, 64
	dense := scanShapes()["dense"]
	pages := make([][]byte, npages)
	for i := range pages {
		pages[i] = append([]byte(nil), dense[i*ps:(i+1)*ps]...)
	}
	for _, name := range []string{"miss", "hit"} {
		b.Run(name, func(b *testing.B) {
			m := NewMatcher()
			a, _ := m.Compile([]string{"1999-"})
			for _, pg := range pages {
				m.ContainsPage(a, pg)
			}
			b.SetBytes(ps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if name == "miss" && i%npages == 0 {
					clear(m.verdicts)
				}
				if m.ContainsPage(a, pages[i%npages]) {
					benchSink++
				}
			}
		})
	}
}
