// Package harness regenerates the paper's results: every theorem and key
// lemma has an experiment function that runs the relevant algorithms on
// the workloads of DESIGN.md's experiment index and renders a table of
// measured quantities next to the claimed bounds. The cmd binaries and
// the root-level benchmarks are thin wrappers over these functions.
package harness

import (
	"fmt"
	"math"
	"strings"
)

// Table is a rendered experiment result. Its JSON form is the table
// schema of a BENCH_*.json report (internal/bench Report.Tables).
type Table struct {
	// Title names the experiment (e.g. "E3 (Theorem 3) ...").
	Title string `json:"title"`
	// Headers are the column names.
	Headers []string `json:"headers"`
	// Rows hold the formatted cells.
	Rows [][]string `json:"rows"`
	// Notes are appended below the table (bound statements, fits).
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("  * ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	case math.Abs(v) >= 0.001:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// FitPowerLaw fits y = c * x^e by least squares in log-log space and
// returns the exponent e and the coefficient of determination R^2.
// Points with non-positive coordinates are skipped; fewer than two valid
// points yield (0, 0).
func FitPowerLaw(xs, ys []float64) (exponent, r2 float64) {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
		syy += ly[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	exponent = (n*sxy - sx*sy) / den
	// R^2 from the correlation coefficient.
	varY := n*syy - sy*sy
	if varY == 0 {
		return exponent, 1
	}
	r := (n*sxy - sx*sy) / math.Sqrt(den*varY)
	return exponent, r * r
}
