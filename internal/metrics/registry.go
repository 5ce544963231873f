package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Histogram accumulates float64 observations into fixed exponential
// buckets, keeping the running sum and count so means survive bucket
// granularity. It is the cumulative-bucket shape Prometheus clients use,
// chosen so a node's /metrics surface scrapes directly. All methods are
// safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
	min    float64
	max    float64
}

// NewHistogram creates a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// DurationBounds are the default latency buckets in seconds: 100µs to
// ~200s, doubling — wide enough for both simnet virtual time and real
// cross-continent RTTs.
func DurationBounds() []float64 {
	out := make([]float64, 0, 22)
	for b := 100e-6; b < 250; b *= 2 {
		out = append(out, b)
	}
	return out
}

// CountBounds are the default buckets for small integer samples (hop
// counts, anycast visits): 1 to 4096, doubling.
func CountBounds() []float64 {
	out := make([]float64, 0, 13)
	for b := 1.0; b <= 4096; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
		Min:    h.min,
		Max:    h.max,
	}
}

// merge folds another snapshot with identical bounds into this one.
func (s *HistSnapshot) merge(o HistSnapshot) {
	if len(s.Counts) != len(o.Counts) {
		return
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	if o.Count > 0 {
		if s.Count == 0 || o.Min < s.Min {
			s.Min = o.Min
		}
		if s.Count == 0 || o.Max > s.Max {
			s.Max = o.Max
		}
	}
	s.Count += o.Count
}

// Registry is a named bag of counters and histograms — the per-node
// metric surface behind /metrics and the chaos harness's per-scenario
// dumps. Metrics are created on first touch; all methods are safe for
// concurrent use (HTTP scrapes race node event loops under tcpnet).
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Inc increments a counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add increments a counter by delta.
func (r *Registry) Add(name string, delta uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns a counter's current value (0 when never touched).
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// hist returns the named histogram, creating it with bounds on first use.
func (r *Registry) hist(name string, bounds func() []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds())
		r.hists[name] = h
	}
	return h
}

// Observe records a duration sample into the named latency histogram
// (seconds; created with DurationBounds on first use).
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.hist(name, DurationBounds).Observe(d.Seconds())
}

// ObserveInt records an integer sample (hops, visits) into the named
// histogram (created with CountBounds on first use).
func (r *Registry) ObserveInt(name string, v int) {
	if r == nil {
		return
	}
	r.hist(name, CountBounds).Observe(float64(v))
}

// Declare pre-creates latency histograms (DurationBounds) for the given
// names. Nodes declare their known metric surface at startup so the first
// observation on a hot path does not pay histogram construction.
func (r *Registry) Declare(names ...string) {
	if r == nil {
		return
	}
	for _, name := range names {
		r.hist(name, DurationBounds)
	}
}

// DeclareInt pre-creates integer-sample histograms (CountBounds).
func (r *Registry) DeclareInt(names ...string) {
	if r == nil {
		return
	}
	for _, name := range names {
		r.hist(name, CountBounds)
	}
}

// Histogram returns the named histogram, or nil when never observed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// Snapshot is a point-in-time copy of a registry, mergeable across nodes.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistSnapshot{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, v := range r.counters {
		s.Counters[name] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()
	for name, h := range hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Merge folds another snapshot into this one (summing counters and
// bucket-wise histogram counts). The chaos harness merges every live
// node's registry into one federation-wide dump.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistSnapshot{}
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, h := range o.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			cp := h
			cp.Bounds = append([]float64(nil), h.Bounds...)
			cp.Counts = append([]uint64(nil), h.Counts...)
			s.Histograms[name] = cp
			continue
		}
		cur.merge(h)
		s.Histograms[name] = cur
	}
}

// RenderProm renders the snapshot in the Prometheus text exposition
// format: counters as "<name> <value>", histograms as cumulative
// _bucket{le=...}/_sum/_count series. Names are listed sorted so output
// is deterministic.
func (s Snapshot) RenderProm() string {
	var b strings.Builder
	for _, name := range sortedNames(s.Counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", name, formatBound(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}
	return b.String()
}

// Summary renders a compact human-readable table: counters plus each
// histogram's count/mean/p50/p99 — the shape the chaos harness and
// EXPLAIN footers print.
func (s Snapshot) Summary() string {
	t := NewTable("metric", "count", "mean", "p50", "p99", "max")
	for _, name := range sortedNames(s.Counters) {
		t.AddRow(name, s.Counters[name], "", "", "", "")
	}
	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		t.AddRow(name, h.Count, formatBound(h.Mean()), formatBound(h.Quantile(0.50)), formatBound(h.Quantile(0.99)), formatBound(h.Max))
	}
	return t.String()
}

// CounterTable renders the counters alone, one "name value" row each —
// the chaos harness's campaign report.
func (s Snapshot) CounterTable() string {
	t := NewTable("counter", "value")
	for _, name := range sortedNames(s.Counters) {
		t.AddRow(name, s.Counters[name])
	}
	return t.String()
}

// sortedNames lists a metric map's names in sorted order, so every
// rendering is deterministic.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Mean returns the average sample (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the q-th sample — coarse but monotone, which is all
// dashboards need.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// formatBound renders a float without trailing zero noise.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
