package match

import "slices"

// Boyer–Moore–Horspool single-pattern search: the host-software baseline
// the paper's Conv string-search numbers rest on ("we use Linux grep,
// which implements the Boyer-Moore string search algorithm", §V-C).

// Horspool holds a preprocessed single pattern.
type Horspool struct {
	pat  []byte
	skip [256]int
}

// NewHorspool preprocesses pat; pat must be non-empty. The matcher keeps
// its own copy, so the caller may reuse pat afterwards.
func NewHorspool(pat []byte) *Horspool {
	if len(pat) == 0 {
		panic("match: empty Boyer-Moore pattern")
	}
	pat = slices.Clone(pat)
	h := &Horspool{pat: pat}
	m := len(pat)
	for i := range h.skip {
		h.skip[i] = m
	}
	for i := 0; i < m-1; i++ {
		h.skip[pat[i]] = m - 1 - i
	}
	return h
}

// next returns the start of the first occurrence of the pattern at or
// after from, or -1: the one search loop under FindAll, Count and
// Contains.
func (h *Horspool) next(text []byte, from int) int {
	m := len(h.pat)
	for i := from; i+m <= len(text); {
		j := m - 1
		for j >= 0 && text[i+j] == h.pat[j] {
			j--
		}
		if j < 0 {
			return i
		}
		i += h.skip[text[i+m-1]]
	}
	return -1
}

// FindAll returns the start indexes of every (possibly overlapping)
// occurrence of the pattern in text.
func (h *Horspool) FindAll(text []byte) []int {
	var out []int
	for i := h.next(text, 0); i >= 0; i = h.next(text, i+1) {
		out = append(out, i)
	}
	return out
}

// Count returns the number of occurrences in text.
func (h *Horspool) Count(text []byte) int {
	n := 0
	for i := h.next(text, 0); i >= 0; i = h.next(text, i+1) {
		n++
	}
	return n
}

// Contains reports whether the pattern occurs in text.
func (h *Horspool) Contains(text []byte) bool { return h.next(text, 0) >= 0 }
