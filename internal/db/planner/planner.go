// Package planner implements the query-planner changes the paper grafts
// onto MariaDB (§V-C): (1) identify a candidate table whose filter
// predicate is amenable to the key-based hardware matcher, (2) estimate
// page selectivity with a sampling probe, (3) offload only when the
// selectivity clears a threshold, and (4) place the NDP-filtered table
// first in the block-nested-loop join order.
package planner

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"biscuit/internal/db"
	"biscuit/internal/match"
)

// Planner holds the offload policy knobs.
type Planner struct {
	// Threshold is the maximum fraction of pages that may contain a key
	// for offload to pay (low selectivity value = few pages = good NDP
	// target; the paper's selectivity is "fraction of pages that satisfy
	// filter conditions").
	Threshold float64
	// Rand drives the sampling probe. It must be an explicitly seeded
	// source so planning decisions are reproducible; a nil Rand is seeded
	// with the calibrated default seed at the first probe.
	Rand *rand.Rand
}

// Default returns the calibrated policy. Its Rand is nil, so a caller
// that brings its own stream seeds nothing it throws away.
func Default() *Planner {
	return &Planner{Threshold: 0.25}
}

// Decision records why a scan was or was not offloaded — the raw
// material for Fig. 10's three query categories.
type Decision struct {
	Offloaded   bool
	Reason      string
	Keys        []string
	Selectivity float64
}

// ExtractKeys derives a hardware-matcher key set from pred such that
// every row satisfying pred lives in a page containing at least one key
// (page-superset safety). It returns ok=false when no sound key set
// within the hardware limits (≤3 keys, ≤16 bytes) exists — e.g. NOT
// LIKE, pure numeric predicates, or too-wide OR fans.
func ExtractKeys(sch *db.Schema, pred db.Expr) ([]string, bool) {
	cands := extract(pred)
	if len(cands) == 0 {
		return nil, false
	}
	// Rank: prefer the candidate whose shortest key is longest (longer
	// literals hit fewer pages), then fewer keys.
	sort.SliceStable(cands, func(i, j int) bool {
		mi, mj := minLen(cands[i]), minLen(cands[j])
		if mi != mj {
			return mi > mj
		}
		return len(cands[i]) < len(cands[j])
	})
	return cands[0], true
}

func minLen(keys []string) int {
	m := 1 << 30
	for _, k := range keys {
		if len(k) < m {
			m = len(k)
		}
	}
	return m
}

// extract returns every sound candidate key set for e.
func extract(e db.Expr) [][]string {
	switch x := e.(type) {
	case db.Cmp:
		return extractCmp(x)
	case db.And:
		// Any one conjunct's keys page-cover the whole conjunction.
		var out [][]string
		for _, k := range x.Kids {
			out = append(out, extract(k)...)
		}
		out = append(out, extractDateRangeAnd(x)...)
		return out
	case db.Or:
		// Every disjunct must be covered; combine one candidate per kid.
		combined := [][]string{nil}
		for _, k := range x.Kids {
			kc := extract(k)
			if len(kc) == 0 {
				return nil
			}
			var next [][]string
			for _, base := range combined {
				for _, c := range kc {
					u := union(base, c)
					if len(u) <= match.MaxKeys {
						next = append(next, u)
					}
				}
			}
			if len(next) == 0 {
				return nil
			}
			combined = next
		}
		return combined
	case db.In:
		if len(x.Vals) == 0 || len(x.Vals) > match.MaxKeys {
			return nil
		}
		var keys []string
		for _, v := range x.Vals {
			k, ok := literalKey(v)
			if !ok {
				return nil
			}
			keys = append(keys, k)
		}
		return [][]string{keys}
	case db.Like:
		if x.Negate {
			return nil // the hardware can't prove absence per page
		}
		if k, ok := likeKey(x.Pattern); ok {
			return [][]string{{k}}
		}
		return nil
	case db.Between:
		if x.Lo.T == db.TDate {
			return yearKeys(x.Lo, x.Hi, true)
		}
		return nil
	}
	return nil
}

func extractCmp(x db.Cmp) [][]string {
	if x.Op != db.EQ {
		return nil
	}
	c, ok := x.R.(db.Const)
	if !ok {
		if c2, ok2 := x.L.(db.Const); ok2 {
			c = c2
		} else {
			return nil
		}
	}
	if k, ok := literalKey(c.V); ok {
		return [][]string{{k}}
	}
	return nil
}

// extractDateRangeAnd recognizes lo <= col (<|<=) hi date-range pairs
// inside a conjunction and produces year-prefix keys ("1994-"), which
// page-cover the range because dates are stored as ASCII YYYY-MM-DD.
func extractDateRangeAnd(a db.And) [][]string {
	var lo, hi *db.Value
	var hiInclusive bool
	var col int = -1
	for _, k := range a.Kids {
		cmp, ok := k.(db.Cmp)
		if !ok {
			continue
		}
		cl, lok := cmp.L.(db.Col)
		cc, rok := cmp.R.(db.Const)
		if !lok || !rok || cc.V.T != db.TDate {
			continue
		}
		if col >= 0 && cl.Idx != col {
			continue
		}
		switch cmp.Op {
		case db.GE, db.GT:
			v := cc.V
			lo, col = &v, cl.Idx
		case db.LT, db.LE:
			v := cc.V
			hi, col, hiInclusive = &v, cl.Idx, cmp.Op == db.LE
		}
	}
	if lo == nil || hi == nil {
		return nil
	}
	return yearKeys(*lo, *hi, hiInclusive)
}

// yearKeys produces date-prefix keys spanning [lo, hi]: month prefixes
// ("1995-09") when the range covers at most MaxKeys months — far more
// page-selective, and what makes Q14-style month filters offloadable —
// else year prefixes ("1994-") for ranges of at most MaxKeys years.
func yearKeys(lo, hi db.Value, hiInclusive bool) [][]string {
	ls, hs := lo.DateString(), hi.DateString()
	ly, lm := atoi(ls[:4]), atoi(ls[5:7])
	hy, hm := atoi(hs[:4]), atoi(hs[5:7])
	if !hiInclusive {
		// An exclusive bound on the 1st doesn't touch its month.
		if hs[8:] == "01" {
			hm--
			if hm == 0 {
				hy, hm = hy-1, 12
			}
		}
	}
	if hy < ly || (hy == ly && hm < lm) {
		return nil
	}
	months := (hy-ly)*12 + hm - lm + 1
	if months <= match.MaxKeys {
		var keys []string
		for y, m := ly, lm; ; {
			keys = append(keys, fmt.Sprintf("%04d-%02d", y, m))
			if y == hy && m == hm {
				break
			}
			m++
			if m > 12 {
				y, m = y+1, 1
			}
		}
		return [][]string{keys}
	}
	if hy-ly+1 > match.MaxKeys {
		return nil
	}
	var keys []string
	for y := ly; y <= hy; y++ {
		keys = append(keys, fmt.Sprintf("%04d-", y))
	}
	return [][]string{keys}
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// literalKey renders a literal as matcher key bytes if representable.
// Strings longer than the hardware's 16 bytes are truncated — a prefix
// is page-superset-sound (any page holding the full literal holds the
// prefix).
func literalKey(v db.Value) (string, bool) {
	switch v.T {
	case db.TString:
		if len(v.S) == 0 {
			return "", false
		}
		if len(v.S) > match.MaxKeyLen {
			return v.S[:match.MaxKeyLen], true
		}
		return v.S, true
	case db.TDate:
		return v.DateString(), true
	}
	return "", false // binary-encoded ints/decimals can't be keyed
}

// likeKey picks the longest literal run of a LIKE pattern: a run between
// wildcards, % or _, so every row the pattern matches holds it.
func likeKey(pattern string) (string, bool) {
	best := ""
	for lit := range strings.FieldsFuncSeq(pattern, func(r rune) bool { return r == '%' || r == '_' }) {
		if len(lit) > len(best) {
			best = lit
		}
	}
	if len(best) > match.MaxKeyLen {
		best = best[:match.MaxKeyLen]
	}
	if best == "" {
		return "", false
	}
	return best, true
}

func union(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, k := range b {
		dup := false
		for _, e := range out {
			if e == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// SampleSelectivity reads samples random pages of t over the
// conventional path (the planner runs on the host) and returns the
// fraction containing at least one key — the paper's "quick check on
// the table to estimate selectivity using a sampling method".
//
// Each page read is judged as the stored page it copied, which the
// device's matcher memo may already know; a page that lends no stored
// copy, or whose stored copy no longer holds the bytes read, is judged
// as read.
func (pl *Planner) SampleSelectivity(ex *db.Exec, t *db.Table, keys []string) (float64, error) {
	m := ex.H.System().Plat.Matcher
	a, err := m.Compile(keys)
	if err != nil {
		return 0, err
	}
	f, err := ex.H.SSD().OpenFile(t.FileName, true)
	if err != nil {
		return 0, err
	}
	n := samples
	if int64(n) > t.Pages {
		n = int(t.Pages)
	}
	rng := pl.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(42))
		pl.Rand = rng
	}
	hitPages := 0
	buf := ex.TakeBytes(t.PageSize)
	defer ex.GiveBytes(buf)
	for i := 0; i < n; i++ {
		off := rng.Int63n(t.Pages) * int64(t.PageSize)
		if err := ex.H.SSD().ReadFileConv(f, off, buf); err != nil {
			return 0, err
		}
		ex.AddLinkPages(1)
		var hit bool
		if pg := f.Lend(off, len(buf)); pg != nil && bytes.Equal(pg, buf) {
			hit = m.ContainsPage(a, pg)
		} else {
			hit = m.Contains(a, buf)
		}
		if hit {
			hitPages++
		}
	}
	if n == 0 {
		return 1, nil
	}
	return float64(hitPages) / float64(n), nil
}

// The calibrated offload gates PlanScan applies before Threshold.
const (
	// minPages: tables smaller than this are not worth offloading
	// ("target table size is too small").
	minPages int64 = 16
	// minKeyLen rejects near-useless keys up front ("predicate is a
	// single character").
	minKeyLen = 2
	// samples is the number of pages the sampling probe reads.
	samples = 24
)

// PlanScan decides Conv vs NDP for scanning t under pred and returns the
// chosen iterator plus the decision record.
func (pl *Planner) PlanScan(ex *db.Exec, t *db.Table, pred db.Expr) (db.Iterator, Decision) {
	if pred == nil {
		return ex.NewConvScan(t, nil), Decision{Reason: "no filter predicate"}
	}
	keys, ok := ExtractKeys(t.Sch, pred)
	if !ok {
		return ex.NewConvScan(t, pred), Decision{Reason: "predicate not matcher-compatible"}
	}
	if minLen(keys) < minKeyLen {
		return ex.NewConvScan(t, pred), Decision{Reason: "expected selectivity too low (key too short)", Keys: keys}
	}
	if t.Pages < minPages {
		return ex.NewConvScan(t, pred), Decision{Reason: "table too small", Keys: keys}
	}
	sel, err := pl.SampleSelectivity(ex, t, keys)
	if err != nil {
		return ex.NewConvScan(t, pred), Decision{Reason: "sampling failed: " + err.Error(), Keys: keys}
	}
	if sel > pl.Threshold {
		return ex.NewConvScan(t, pred), Decision{
			Reason:      fmt.Sprintf("sampled page selectivity %.2f above threshold %.2f", sel, pl.Threshold),
			Keys:        keys,
			Selectivity: sel,
		}
	}
	return ex.NewNDPScan(t, keys, pred), Decision{
		Offloaded:   true,
		Reason:      fmt.Sprintf("offloaded: sampled page selectivity %.2f", sel),
		Keys:        keys,
		Selectivity: sel,
	}
}
