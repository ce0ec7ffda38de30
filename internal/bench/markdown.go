package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"biscuit/internal/sim"
)

// Every result type renders itself as Markdown with a WriteMarkdown
// method beside its Run function and the paper's numbers (paperTable2,
// …); EXPERIMENTS.md carries those renderings of the blessed baselines.

// table writes a Markdown table: the header, its separator, then one
// line per row.
func table(w io.Writer, header []string, rows ...[]string) {
	line := func(cells []string) { fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")) }
	line(header)
	fmt.Fprintln(w, "|"+strings.Repeat("---|", len(header)))
	for _, r := range rows {
		line(r)
	}
}

// num is every rendered number: four significant figures, no exponent.
func num(x float64) string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
	return strconv.FormatFloat(r, 'f', -1, 64)
}

// paperNum renders a paper value; 0 is one the paper does not report.
func paperNum(x float64) string {
	if x == 0 {
		return "—"
	}
	return num(x)
}

// times renders a ratio as a speed-up.
func times(x float64) string { return num(x) + "×" }

// ms renders nanoseconds as milliseconds.
func ms(ns int64) string { return num(float64(ns) / 1e6) }

// ratio is a / b.
func ratio(a, b sim.Time) float64 { return float64(a) / float64(b) }
