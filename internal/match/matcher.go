package match

import "weak"

// Matcher is one device's matcher IP as the simulator runs it. It
// compiles and hardware-checks each key set it is handed once, and it
// remembers whether a key set occurs in a stored page, so a page that
// every query of a serving window scans runs through the automaton once
// per key set. The memo is host time only: the IP's timing is charged
// where the data moves (nand.ReadThrough), whatever the memo does.
//
// A page's identity is the page buffer itself, held weakly: the media
// lends the same buffer from Program until Erase drops it, never writes
// it, and never recycles it, and injected read faults never alter it.
// A rewrite therefore lends a new buffer, which the memo has not seen.
// A weak pointer compares equal only to one made from the same object,
// even after that object is reclaimed, and keeps nothing alive, so a
// dead page's entries only wait for the next sweep.
//
// A nil *Matcher remembers nothing: Compile compiles afresh and
// ContainsPage runs the automaton on every call. A Matcher belongs to
// one simulation; it is not safe for concurrent use.
type Matcher struct {
	sets     map[string]*Automaton
	verdicts map[verdict]bool
	sweepAt  int // len(verdicts) at which the next sweep runs
	stats    MatcherStats
}

// verdict keys one remembered judgement: a's keys occur, or not, in the
// n bytes from page's first byte.
type verdict struct {
	page weak.Pointer[byte]
	n    int
	a    *Automaton
}

// MatcherStats counts a Matcher's judgements: Judged ran the automaton
// over ScannedBytes in all; Recalled came from the memo.
type MatcherStats struct {
	Judged, Recalled, ScannedBytes int64
}

// The memo is swept of dead pages when it has doubled since the last
// sweep, and forgotten whole if the live entries alone reach
// maxVerdicts (≈ 12 MB of map). Automata are kept for the Matcher's
// life, one per distinct key set it has compiled.
const (
	minSweep    = 1 << 12
	maxVerdicts = 1 << 18
)

// NewMatcher returns an empty Matcher.
func NewMatcher() *Matcher {
	return &Matcher{sets: map[string]*Automaton{}, verdicts: map[verdict]bool{}, sweepAt: minSweep}
}

// Compile is CompileHW once per distinct key set: the automaton it
// returns is shared by every caller that brings the same keys.
func (m *Matcher) Compile(keys []string) (*Automaton, error) {
	if m == nil {
		return CompileHW(keys)
	}
	if err := validate(keys); err != nil {
		return nil, err
	}
	// Each key is at most MaxKeyLen bytes, so a length byte before each
	// names the set unambiguously.
	var buf [MaxKeys * (1 + MaxKeyLen)]byte
	name := buf[:0]
	for _, k := range keys {
		name = append(append(name, byte(len(k))), k...)
	}
	if a, ok := m.sets[string(name)]; ok {
		return a, nil
	}
	a, err := Compile(keyBytes(keys))
	if err != nil {
		return nil, err
	}
	m.sets[string(name)] = a
	return a, nil
}

// Contains reports whether any of a's keys occurs in text, which may be
// any buffer: it runs the automaton and remembers nothing.
func (m *Matcher) Contains(a *Automaton, text []byte) bool {
	if m != nil {
		m.stats.Judged++
		m.stats.ScannedBytes += int64(len(text))
	}
	return a.Contains(text)
}

// ContainsPage is Contains for bytes the media lent: a stored page or a
// view into one, or a buffer nobody writes while it is reachable (the
// FTL's reconstructed pages). a must come from m's Compile.
func (m *Matcher) ContainsPage(a *Automaton, page []byte) bool {
	if m == nil || len(page) == 0 {
		return m.Contains(a, page)
	}
	k := verdict{page: weak.Make(&page[0]), n: len(page), a: a}
	if v, ok := m.verdicts[k]; ok {
		m.stats.Recalled++
		return v
	}
	v := m.Contains(a, page)
	if len(m.verdicts) >= m.sweepAt {
		m.sweep()
	}
	m.verdicts[k] = v
	return v
}

// sweep drops the entries of reclaimed pages, and every entry if the
// live ones alone reach maxVerdicts.
func (m *Matcher) sweep() {
	for k := range m.verdicts {
		if k.page.Value() == nil {
			delete(m.verdicts, k)
		}
	}
	if len(m.verdicts) >= maxVerdicts {
		clear(m.verdicts)
	}
	m.sweepAt = max(2*len(m.verdicts), minSweep)
}

// Stats returns the judgement counts so far (zero for a nil Matcher).
func (m *Matcher) Stats() MatcherStats {
	if m == nil {
		return MatcherStats{}
	}
	return m.stats
}
