package biscuit

import (
	"fmt"
	"sort"

	"biscuit/internal/core"
	"biscuit/internal/isfs"
	"biscuit/internal/match"
	"biscuit/internal/ports"
)

// BuiltinModule is the name of the module the runtime pre-installs. It
// packages the hardware IPs as built-in tasks (paper §I: "allows
// programmers to seamlessly utilize available hardware IPs ... by
// encapsulating them as built-in tasks").
const BuiltinModule = "builtin.slet"

// ScannerID is the built-in pattern-scan SSDlet: it streams a file
// through the per-channel hardware matcher and reports matches.
const ScannerID = "idScanner"

// ScanMode selects what the scanner emits.
type ScanMode int

// Scanner output modes.
const (
	// ScanCount emits one ScanResult with the total match count.
	ScanCount ScanMode = iota
	// ScanPositions emits one ScanResult carrying every match position.
	ScanPositions
)

// ScanArgs parameterizes the built-in scanner.
type ScanArgs struct {
	File string   // file to scan
	Keys []string // up to 3 keys of up to 16 bytes (hardware limits)
	Mode ScanMode
}

// ScanResult is the scanner's summary output.
type ScanResult struct {
	Matches   int64
	Positions []int64 // set in ScanPositions mode
	Bytes     int64   // bytes scanned
}

// scannerLet implements the built-in scan task.
type scannerLet struct{}

func (scannerLet) Spec() Spec {
	return Spec{Out: []core.SpecType{core.PacketType}}
}

func (scannerLet) Run(c *Context) error {
	args, ok := c.Arg(0).(ScanArgs)
	if !ok {
		return fmt.Errorf("biscuit: scanner needs ScanArgs, got %T", c.Arg(0))
	}
	a, err := match.CompileHW(args.Keys)
	if err != nil {
		return err
	}
	out, err := Out[Packet](c, 0)
	if err != nil {
		return err
	}
	f, err := c.OpenFile(args.File, isfs.ReadOnly)
	if err != nil {
		return err
	}

	res := ScanResult{Bytes: f.Size()}
	count := func(m match.Match) {
		res.Matches++
		if args.Mode == ScanPositions {
			res.Positions = append(res.Positions, m.Pos)
		}
	}
	// Each channel's matcher IP sees only its own pages, and chunks
	// arrive in channel-completion order, so each chunk is scanned
	// independently; matches that straddle a chunk boundary are found by
	// a firmware "seam pass" that re-scans the stitched tail+head bytes
	// (at most MaxKeyLen-1 on each side) afterwards.
	const keepMax = match.MaxKeyLen - 1
	type edge struct {
		off int64             // chunk start offset
		n   int               // chunk length
		b   [2 * keepMax]byte // its first min(n, keepMax) bytes, then its last
	}
	var edges []edge
	s := a.NewStream()
	scan := c.ScanFile(f, 0, int(f.Size()), func(off int64, data []byte) {
		s.Reset(off)
		s.Feed(data, count)
		e := edge{off: off, n: len(data)}
		copy(e.b[:keepMax], data)
		copy(e.b[keepMax:], data[max(0, len(data)-keepMax):])
		edges = append(edges, e)
	})
	if scan != nil {
		return scan
	}
	// Seam pass, in file order: for every chunk boundary, scan
	// tail(prev)+head(next) and count only matches that straddle it
	// (matches fully inside either side were already counted by the
	// per-chunk scans).
	sort.Slice(edges, func(i, j int) bool { return edges[i].off < edges[j].off })
	var boundary int64
	straddling := func(m match.Match) {
		if m.Pos < boundary && m.Pos+int64(len(a.Keys()[m.Key])) > boundary {
			count(m)
		}
	}
	for i := 1; i < len(edges); i++ {
		prev, next := &edges[i-1], &edges[i]
		if boundary = prev.off + int64(prev.n); boundary != next.off {
			continue
		}
		var joined [2 * keepMax]byte
		tail := copy(joined[:], prev.b[keepMax:keepMax+min(prev.n, keepMax)])
		n := tail + copy(joined[tail:], next.b[:min(next.n, keepMax)])
		s.Reset(boundary - int64(tail))
		s.Feed(joined[:n], straddling)
	}
	sort.Slice(res.Positions, func(i, j int) bool { return res.Positions[i] < res.Positions[j] })
	pkt, err := ports.Encode(res)
	if err != nil {
		return err
	}
	if !out.Put(pkt) {
		return fmt.Errorf("builtin: scan result dropped: output port closed")
	}
	return nil
}

// builtinImage assembles the pre-installed module.
func builtinImage() *ModuleImage {
	return core.NewModuleImage(BuiltinModule, 48<<10).
		RegisterSSDLet(ScannerID, func() core.SSDlet { return scannerLet{} })
}
