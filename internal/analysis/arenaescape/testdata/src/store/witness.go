package store

import "biscuit/internal/core"

// seamEdges is the built-in scanner's matcher phase with the copy of
// each chunk's edges dropped: its edge records keep views of the lent
// page's head and tail for the seam pass. No test or gated run sees a
// difference, so only arenaescape catches it.
func seamEdges(c *core.Context, f *core.File, n int) (int, error) {
	const keep = 15
	type edge struct {
		off        int64
		head, tail []byte
	}
	var edges []edge
	err := c.ScanFile(f, 0, n, func(off int64, data []byte) {
		edges = append(edges, edge{off: off, head: data[:min(len(data), keep)], tail: data[max(0, len(data)-keep):]}) // want `borrowed scan buffer escapes its sink callback into edges`
	})
	total := 0
	for _, e := range edges {
		total += len(e.head) + len(e.tail)
	}
	return total, err
}
