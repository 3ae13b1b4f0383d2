// Package harness regenerates the paper's results: every theorem and key
// lemma has an experiment, listed once in Experiments, that runs the
// relevant algorithms and returns a table of measured quantities next to
// the claimed bounds. A table that states a contract carries it as one
// bool column named "ok". The cmd binaries and the root-level benchmarks
// are thin wrappers over these functions.
package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Table is an experiment result. Its JSON form is the table schema of a
// BENCH_*.json report (internal/bench Report.Tables).
type Table struct {
	// Title names the experiment (e.g. "E3 (Theorem 3) ...").
	Title string `json:"title"`
	// Headers are the column names.
	Headers []string `json:"headers"`
	// Rows hold the cells as given: int, float64, bool or string.
	Rows []Row `json:"rows"`
	// Notes are appended below the table (bound statements, fits).
	Notes []string `json:"notes,omitempty"`
}

// Row is one table row.
type Row []any

// MarshalJSON writes the cells as JSON numbers, bools and strings. JSON
// has no NaN or infinity, so a non-finite float is written as its
// rendering ("NaN", "+Inf" or "-Inf") instead of failing the report.
func (r Row) MarshalJSON() ([]byte, error) {
	cells := make([]any, len(r))
	for i, c := range r {
		if v, ok := c.(float64); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			c = formatFloat(v)
		}
		cells[i] = c
	}
	return json.Marshal(cells)
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...any) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Metrics returns the int and float64 cells of the last row keyed by
// header name.
func (t *Table) Metrics() map[string]float64 {
	out := map[string]float64{}
	if len(t.Rows) == 0 {
		return out
	}
	for i, c := range t.Rows[len(t.Rows)-1] {
		switch v := c.(type) {
		case int:
			out[t.Headers[i]] = float64(v)
		case float64:
			out[t.Headers[i]] = v
		}
	}
	return out
}

// String renders the table with aligned columns: floats through
// formatFloat, every other cell with %v.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	rows := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for r, row := range t.Rows {
		for i, c := range row {
			s := fmt.Sprint(c)
			if v, ok := c.(float64); ok {
				s = formatFloat(v)
			}
			rows[r] = append(rows[r], s)
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
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
	for _, row := range rows {
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
