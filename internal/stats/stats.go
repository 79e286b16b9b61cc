// Package stats provides the small statistics and presentation helpers the
// experiment harness uses: normalized improvements, means, weighted speedup
// for multiprogrammed mixes, and fixed-width table rendering for the
// regenerated figures and tables.
package stats

import (
	"fmt"
	"strings"
)

// Improvement returns the fractional reduction of optimized vs baseline:
// (baseline − optimized) / baseline. Zero baselines yield 0.
func Improvement(baseline, optimized float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - optimized) / baseline
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WeightedSpeedup computes the multiprogrammed-workload metric of
// Figure 25 [21]: Σᵢ IPCᵢ(shared) / IPCᵢ(alone). With fixed instruction
// counts per application this is Σᵢ Tᵢ(alone) / Tᵢ(shared).
func WeightedSpeedup(aloneTimes, sharedTimes []int64) float64 {
	if len(aloneTimes) != len(sharedTimes) {
		panic("stats: weighted speedup length mismatch")
	}
	var ws float64
	for i := range aloneTimes {
		if sharedTimes[i] == 0 {
			continue
		}
		ws += float64(aloneTimes[i]) / float64(sharedTimes[i])
	}
	return ws
}

// CumulativeFractions turns histogram bucket counts into a CDF: element i
// is the fraction of observations in buckets 0..i (integer cumulation, one
// float division per bucket). All-zero counts yield all zeros.
func CumulativeFractions(counts []int64) []float64 {
	out := make([]float64, len(counts))
	var total, cum int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range counts {
		cum += c
		out[i] = float64(cum) / float64(total)
	}
	return out
}

// Table renders rows as a fixed-width text table with a header.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row; cells beyond the header count are dropped.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row of formatted cells: strings pass through, float64
// render with %.1f, integers with %d.
func (t *Table) AddF(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
