// Package metrics provides the exact-sample distributions and tables the
// evaluation harness regenerates the paper's figures with, and the
// counter/histogram Registry behind every node's /metrics.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// number is the sample types a Dist holds: counts (hops, per-node loads)
// and time.Duration latencies.
type number interface {
	~int | ~int64 | ~float64
}

// Dist keeps every sample it is given, so the evaluation harness reads
// exact percentiles and CDFs from it (a Histogram only has buckets). The
// zero value is empty and ready to use. All methods are safe for
// concurrent use: experiment and benchmark harnesses feed one Dist from
// many goroutines.
type Dist[T number] struct {
	mu      sync.Mutex
	samples []T
	sorted  bool
}

// Add appends a sample.
func (d *Dist[T]) Add(v T) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of samples.
func (d *Dist[T]) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.samples)
}

// Mean returns the average sample, 0 when empty. Like Std it is computed
// in float64 and converted to T, so an integer T drops the fraction: hold
// counts whose mean matters as float64.
func (d *Dist[T]) Mean() T {
	d.mu.Lock()
	defer d.mu.Unlock()
	return T(d.mean())
}

func (d *Dist[T]) mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	var sum T
	for _, v := range d.samples {
		sum += v
	}
	return float64(sum) / float64(len(d.samples))
}

// Std returns the population standard deviation.
func (d *Dist[T]) Std() T {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.samples) == 0 {
		return 0
	}
	mean := d.mean()
	var ss float64
	for _, v := range d.samples {
		diff := float64(v) - mean
		ss += diff * diff
	}
	return T(math.Sqrt(ss / float64(len(d.samples))))
}

// Min returns the smallest sample, 0 when empty.
func (d *Dist[T]) Min() T { return d.Percentile(0) }

// Max returns the largest sample, 0 when empty.
func (d *Dist[T]) Max() T { return d.Percentile(100) }

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank, 0 when empty.
func (d *Dist[T]) Percentile(p float64) T {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.sort()
	rank := int(math.Ceil(p / 100 * float64(n)))
	return d.samples[min(max(rank, 1), n)-1]
}

// sort must be called with mu held.
func (d *Dist[T]) sort() {
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint[T number] struct {
	X T
	P float64 // cumulative probability in (0,1]
}

// CDF returns up to points evenly spaced points of the empirical CDF (the
// paper's Fig. 9 plots).
func (d *Dist[T]) CDF(points int) []CDFPoint[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.samples)
	if n == 0 || points <= 0 {
		return nil
	}
	d.sort()
	points = min(points, n)
	out := make([]CDFPoint[T], 0, points)
	for i := 1; i <= points; i++ {
		idx := i*n/points - 1
		out = append(out, CDFPoint[T]{X: d.samples[idx], P: float64(idx+1) / float64(n)})
	}
	return out
}

// Table renders aligned text tables for experiment output, in the spirit
// of the paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
