// Package metrics provides the small statistics and rendering toolkit used
// by the experiment harness: integer histograms (Figure 5), geometric
// means (Figure 10's summary), normalization, and fixed-width ASCII tables
// and series so every paper table/figure can be printed from a terminal.
//
// It also holds the rescqd daemon's metrics: Registry, where each /metrics
// family is declared once (counters and gauges, optionally labeled, plus
// scrape-time Func families) and rendered by WriteText in the Prometheus
// text format; and ServiceStats, the daemon's counters declared into one.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a frequency count over non-negative integer values (gate
// latencies in cycles).
type Histogram struct {
	counts map[int]int
	n      int
	sum    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add records one observation.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.n++
	h.sum += int64(v)
}

// AddAll records a batch of observations.
func (h *Histogram) AddAll(vs []int) {
	for _, v := range vs {
		h.Add(v)
	}
}

// N returns the observation count.
func (h *Histogram) N() int { return h.n }

// Mean returns the arithmetic mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Count returns the frequency of value v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Fraction returns the share of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.n)
}

// FractionAtMost returns the share of observations <= v.
func (h *Histogram) FractionAtMost(v int) float64 {
	if h.n == 0 {
		return 0
	}
	c := 0
	for val, cnt := range h.counts {
		if val <= v {
			c += cnt
		}
	}
	return float64(c) / float64(h.n)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// the observations are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	keys := h.sortedKeys()
	target := int(math.Ceil(p * float64(h.n)))
	if target < 1 {
		target = 1
	}
	acc := 0
	for _, k := range keys {
		acc += h.counts[k]
		if acc >= target {
			return k
		}
	}
	return keys[len(keys)-1]
}

func (h *Histogram) sortedKeys() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Render draws the histogram as ASCII bars, bucketing values above maxBin
// into a single overflow row.
func (h *Histogram) Render(title string, maxBin, width int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (n=%d, mean=%.2f cycles)\n", title, h.n, h.Mean())
	if h.n == 0 {
		return sb.String()
	}
	binned := make(map[int]int)
	overflow := 0
	maxCount := 0
	for v, c := range h.counts {
		if v > maxBin {
			overflow += c
		} else {
			binned[v] += c
		}
	}
	for _, c := range binned {
		if c > maxCount {
			maxCount = c
		}
	}
	if overflow > maxCount {
		maxCount = overflow
	}
	bar := func(c int) string {
		if maxCount == 0 {
			return ""
		}
		w := c * width / maxCount
		return strings.Repeat("#", w)
	}
	for v := 0; v <= maxBin; v++ {
		if c, ok := binned[v]; ok {
			fmt.Fprintf(&sb, "  %4d | %-*s %d (%.1f%%)\n", v, width, bar(c), c, 100*float64(c)/float64(h.n))
		}
	}
	if overflow > 0 {
		fmt.Fprintf(&sb, "  >%3d | %-*s %d (%.1f%%)\n", maxBin, width, bar(overflow), overflow, 100*float64(overflow)/float64(h.n))
	}
	return sb.String()
}

// GeoMean returns the geometric mean of positive values; it panics on an
// empty slice and ignores non-positive entries are NOT allowed (panic), so
// callers normalize first.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		panic("metrics: geomean of nothing")
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic("metrics: geomean of non-positive value")
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Normalize divides every value by base.
func Normalize(vs []float64, base float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v / base
	}
	return out
}

// Table renders rows as a fixed-width ASCII table with a header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// Series is a labeled sequence of (x, y) points — one line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// RenderSeries prints several series in a compact aligned listing, one
// block per X value, suitable for regenerating the paper's line plots.
func RenderSeries(title string, xName string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	t := NewTable(append([]string{xName}, labels(series)...)...)
	if len(series) == 0 {
		return sb.String()
	}
	for i := range series[0].X {
		cells := make([]any, 0, len(series)+1)
		cells = append(cells, series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				cells = append(cells, s.Y[i])
			} else {
				cells = append(cells, "-")
			}
		}
		t.Row(cells...)
	}
	sb.WriteString(t.String())
	return sb.String()
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}
