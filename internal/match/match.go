// Package match implements the pattern-matching engines of the paper:
// the per-flash-channel hardware matcher IP (key-based, at most three
// keywords of at most 16 bytes each, §IV-A/§V-A) and the host-software
// baseline (Boyer–Moore–Horspool, as used by Linux grep in §V-C).
//
// The hardware IP's *results* are computed exactly by a streaming
// Aho–Corasick automaton fed page-sized chunks in file order, so matches
// spanning chunk boundaries are found; its *timing* is modeled where the
// data moves (nand.ReadThrough charges channel-rate streaming plus the
// IP-control overhead), so the automaton's own work is host time only
// (DESIGN.md "The matcher kernel").
package match

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
)

// Hardware IP limits (paper §V-A).
const (
	MaxKeys   = 3
	MaxKeyLen = 16
)

// Errors returned by pattern validation.
var (
	ErrTooManyKeys = errors.New("match: hardware matcher accepts at most 3 keys")
	ErrKeyTooLong  = errors.New("match: hardware matcher keys are at most 16 bytes")
	ErrEmptyKey    = errors.New("match: empty key")
	ErrTooLarge    = errors.New("match: key set needs more than 65536 automaton states")
)

// ValidateHW reports whether keys fit the hardware matcher's limits.
func ValidateHW(keys [][]byte) error { return validate(keys) }

func validate[K string | []byte](keys []K) error {
	if len(keys) == 0 {
		return ErrEmptyKey
	}
	if len(keys) > MaxKeys {
		return fmt.Errorf("%w: got %d", ErrTooManyKeys, len(keys))
	}
	for i, k := range keys {
		if len(k) == 0 {
			return fmt.Errorf("%w (key %d)", ErrEmptyKey, i)
		}
		if len(k) > MaxKeyLen {
			return fmt.Errorf("%w: key %d is %d bytes", ErrKeyTooLong, i, len(k))
		}
	}
	return nil
}

// Automaton is an Aho–Corasick multi-pattern matcher compiled to a
// dense DFA. Its first scan of a non-empty text calibrates it on that
// text, so that first use must not race with another; after it, the
// automaton is read-only and any number of goroutines may scan with it.
type Automaton struct {
	keys [][]byte // private copies, in the caller's order
	// tab[state<<8|byte] is the transition function; state 0 is the
	// root, and exactly the states with id >= acc accept.
	tab []uint16
	acc uint16
	out [][]int32 // out[s-acc]: indexes of the keys ending at state s
	// anchors holds one (offset, byte) per key, duplicates dropped,
	// rarest first: a key can only begin at s if text[s+off] is its
	// anchor byte. Empty until the first non-empty text calibrates it.
	anchors []anchor
}

// anchor is the key byte the root skip loop searches for: b, off bytes
// into the key.
type anchor struct {
	off int
	b   byte
}

// Compile builds an automaton over keys. Keys are matched as raw bytes
// (case-sensitive), like the hardware IP. The key bytes are copied — the
// anchors and the reported positions depend on them staying put — so
// the caller may reuse its slices.
func Compile(keys [][]byte) (*Automaton, error) {
	if len(keys) == 0 {
		return nil, ErrEmptyKey
	}
	a := &Automaton{keys: make([][]byte, len(keys)), anchors: make([]anchor, 0, len(keys))}
	nmax := 1 // one state per trie node: the root plus at most one per key byte
	for i, k := range keys {
		if len(k) == 0 {
			return nil, fmt.Errorf("%w (key %d)", ErrEmptyKey, i)
		}
		nmax += len(k)
		a.keys[i] = bytes.Clone(k)
	}
	if nmax > 1<<16 {
		return nil, fmt.Errorf("%w: %d key bytes", ErrTooLarge, nmax-1)
	}
	a.tab = make([]uint16, nmax<<8)

	// Trie, laid straight into the table (zero = no child; the root is
	// nobody's child). A node accepts iff some key is a suffix of its
	// path, known when it is created, so ids are final from the start:
	// non-accepting count up from the root, accepting down from nmax-1.
	lo, hi := 1, nmax
	for _, k := range a.keys {
		cur := 0
		for d, b := range k {
			nxt := int(a.tab[cur<<8|int(b)])
			if nxt == 0 {
				var ends []int32
				for kj, other := range a.keys {
					if bytes.HasSuffix(k[:d+1], other) {
						ends = append(ends, int32(kj))
					}
				}
				if ends == nil {
					nxt = lo
					lo++
				} else {
					hi--
					nxt = hi
					a.out = append(a.out, ends)
				}
				a.tab[cur<<8|int(b)] = uint16(nxt)
			}
			cur = nxt
		}
	}
	a.acc = uint16(hi)
	slices.Reverse(a.out) // appended in descending id order

	// Goto function, breadth-first: a dequeued node's failure state is
	// shallower, so its row is complete, and the node's row is that row
	// overlaid with the node's own children (the root's stays as is).
	fail := make([]uint16, nmax)
	queue := make([]uint16, 0, nmax)
	for _, v := range a.tab[:256] {
		if v != 0 {
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u, f := int(queue[qi])<<8, int(fail[queue[qi]])<<8
		row, frow := a.tab[u:u+256], a.tab[f:f+256]
		for b, v := range row {
			if v != 0 {
				fail[v] = frow[b]
				queue = append(queue, v)
			} else {
				row[b] = frow[b]
			}
		}
	}
	return a, nil
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(keys ...string) *Automaton {
	a, err := Compile(keyBytes(keys))
	if err != nil {
		panic(err)
	}
	return a
}

// CompileHW is what every user of the matcher IP does with a key set it
// was handed as strings: check it against the hardware's limits
// (ValidateHW), then Compile it.
func CompileHW(keys []string) (*Automaton, error) {
	bs := keyBytes(keys)
	if err := ValidateHW(bs); err != nil {
		return nil, err
	}
	return Compile(bs)
}

func keyBytes(keys []string) [][]byte {
	bs := make([][]byte, len(keys))
	for i, k := range keys {
		bs[i] = []byte(k)
	}
	return bs
}

// Keys returns the compiled key set: the automaton's copies, read-only.
func (a *Automaton) Keys() [][]byte { return a.keys }

// next is the one scan loop under Contains, Count and Stream.Feed. It
// runs the automaton over text[i:] from state st and returns just past
// the first byte that enters an accepting state, with that state; or
// len(text) and the state the text ends in. Back at the root it jumps
// to skip's position, the next one some key could begin at.
//
// The jump finds every match. An occurrence of a key that starts at s
// has that key's anchor byte at s+off, so the positions skip passes
// start no occurrence. Stepping them would only have carried prefixes
// of occurrences starting there, and each of those has its anchor
// mismatched already, so it could never complete; restarting from the
// root at the position skip returns drops nothing else. The reported
// (Pos, Key) matches, Count and Contains are therefore the unskipped
// automaton's, though the state a Stream ends a chunk in may differ.
func (a *Automaton) next(text []byte, i int, st uint16) (int, uint16) {
	if len(a.anchors) == 0 && len(text) > 0 {
		a.calibrate(text)
	}
	tab, acc := a.tab, a.acc
	for i < len(text) {
		if st == 0 {
			if i = a.skip(text, i); i == len(text) {
				break
			}
		}
		st = tab[int(st)<<8|int(text[i])]
		i++
		if st >= acc {
			return i, st
		}
	}
	return i, st
}

// skip returns the least s >= i where some key could begin: where
// text[s+off] is its anchor byte, or s+off is past the end of text (the
// key could still complete in the next chunk of a Stream). If an anchor
// byte is already in place it returns i without a search; otherwise
// each anchor is searched for only inside the window the earlier ones
// left, so the work is at most len(anchors) times the distance skipped.
func (a *Automaton) skip(text []byte, i int) int {
	lim := len(text) // > i throughout: next calls skip only with i < len(text)
	for _, an := range a.anchors {
		lo, hi := i+an.off, min(lim+an.off, len(text))
		if lo >= hi || text[lo] == an.b {
			return i // i+off is past the end, or the anchor byte is in place
		}
		if j := bytes.IndexByte(text[lo+1:hi], an.b); j >= 0 {
			lim = i + 1 + j
		} else {
			lim = hi - an.off
		}
	}
	return lim
}

// calibrate picks each key's anchor from one histogram pass over text:
// its rarest byte there (the earliest of equals), unless that is not at
// least twice as rare as its first byte, which then stays the anchor.
// Keys that pick the same (offset, byte) share one anchor; the anchors
// are ordered rarest first, so the first search bounds the others
// tightest.
func (a *Automaton) calibrate(text []byte) {
	var h [256]int
	for _, b := range text {
		h[b]++
	}
	for _, k := range a.keys {
		best := 0
		for off, b := range k {
			if h[b] < h[k[best]] {
				best = off
			}
		}
		if 2*h[k[best]] > h[k[0]] {
			best = 0
		}
		an := anchor{off: best, b: k[best]}
		if slices.Contains(a.anchors, an) {
			continue
		}
		at := len(a.anchors)
		for at > 0 && h[a.anchors[at-1].b] > h[an.b] {
			at--
		}
		a.anchors = slices.Insert(a.anchors, at, an)
	}
}

// Match is one occurrence: key Key starts at byte offset Pos of the
// stream.
type Match struct {
	Pos int64
	Key int
}

// Stream feeds data through the automaton chunk by chunk, preserving
// state across chunk boundaries — exactly what the per-channel IP does
// as pages fly by.
type Stream struct {
	a     *Automaton
	state uint16
	pos   int64
}

// NewStream starts a fresh scan at stream offset 0.
func (a *Automaton) NewStream() *Stream { return &Stream{a: a} }

// Reset rewinds the stream to offset off with cleared state.
func (s *Stream) Reset(off int64) {
	s.state = 0
	s.pos = off
}

// Pos returns the number of bytes consumed so far.
func (s *Stream) Pos() int64 { return s.pos }

// Feed scans chunk, invoking emit for each key occurrence (start
// offset). Matches spanning the previous chunk's tail are reported with
// their true start position.
func (s *Stream) Feed(chunk []byte, emit func(Match)) {
	a, st := s.a, s.state
	for i := 0; i < len(chunk); {
		if i, st = a.next(chunk, i, st); st >= a.acc {
			end := s.pos + int64(i)
			for _, ki := range a.out[st-a.acc] {
				emit(Match{Pos: end - int64(len(a.keys[ki])), Key: int(ki)})
			}
		}
	}
	s.state = st
	s.pos += int64(len(chunk))
}

// Count scans text once and returns the total number of occurrences of
// all keys.
func (a *Automaton) Count(text []byte) int {
	n := 0
	a.NewStream().Feed(text, func(Match) { n++ })
	return n
}

// Contains reports whether any key occurs in text.
func (a *Automaton) Contains(text []byte) bool {
	_, st := a.next(text, 0, 0)
	return st >= a.acc
}
