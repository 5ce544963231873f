package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(CountBounds())
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum = %v", s.Sum)
	}
	if m := s.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	// Bucket-upper-bound estimates: the median of 1..100 lands in (32,64].
	if q := s.Quantile(0.5); q != 64 {
		t.Fatalf("p50 = %v, want 64", q)
	}
	// The max sample caps the +Inf-adjacent estimate.
	if q := s.Quantile(1.0); q != 128 {
		t.Fatalf("p100 = %v, want 128 (bucket bound)", q)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestRegistryCountersAndObserve(t *testing.T) {
	r := NewRegistry()
	r.Inc("a_total")
	r.Add("a_total", 4)
	if r.Counter("a_total") != 5 {
		t.Fatalf("a_total = %d", r.Counter("a_total"))
	}
	if r.Counter("never") != 0 {
		t.Fatal("untouched counter must read 0")
	}
	r.Observe("lat_seconds", 250*time.Millisecond)
	r.Observe("lat_seconds", 500*time.Millisecond)
	if r.Histogram("lat_seconds") == nil {
		t.Fatal("histogram missing")
	}
	h := r.Histogram("lat_seconds").Snapshot()
	if h.Count != 2 {
		t.Fatalf("wrong count: %+v", h)
	}
	if m := h.Mean(); m < 0.374 || m > 0.376 {
		t.Fatalf("mean = %v", m)
	}
	r.ObserveInt("hops", 3)
	if r.Histogram("hops").Snapshot().Count != 1 {
		t.Fatal("int histogram not recorded")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc("x")
	r.Observe("y", time.Second)
	r.ObserveInt("z", 1)
	if r.Counter("x") != 0 {
		t.Fatal("nil registry counter must be 0")
	}
	if r.Histogram("y") != nil {
		t.Fatal("nil registry histogram must be nil")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestSnapshotMergeAndRender(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add("q_total", 2)
	b.Add("q_total", 3)
	b.Inc("only_b_total")
	a.Observe("lat_seconds", 10*time.Millisecond)
	b.Observe("lat_seconds", 20*time.Millisecond)
	b.Observe("only_b_seconds", time.Second)

	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	if merged.Counters["q_total"] != 5 || merged.Counters["only_b_total"] != 1 {
		t.Fatalf("counters = %v", merged.Counters)
	}
	if merged.Histograms["lat_seconds"].Count != 2 {
		t.Fatalf("merged lat count = %d", merged.Histograms["lat_seconds"].Count)
	}
	if merged.Histograms["only_b_seconds"].Count != 1 {
		t.Fatal("histogram present only in b must survive merge")
	}

	prom := merged.RenderProm()
	for _, want := range []string{
		"# TYPE q_total counter", "q_total 5",
		"# TYPE lat_seconds histogram", "lat_seconds_count 2",
		`lat_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q:\n%s", want, prom)
		}
	}
	// Cumulative bucket counts must be monotone and end at the count.
	sum := merged.Summary()
	if !strings.Contains(sum, "lat_seconds") || !strings.Contains(sum, "q_total") {
		t.Errorf("summary missing metrics:\n%s", sum)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Inc("c_total")
				r.Observe("d_seconds", time.Millisecond)
				r.ObserveInt("i_hist", i%10)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Counter("c_total") != 4000 {
		t.Fatalf("c_total = %d", r.Counter("c_total"))
	}
	if r.Histogram("d_seconds").Snapshot().Count != 4000 {
		t.Fatal("histogram lost samples")
	}
}

func TestRegistrySnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Add("x", 7)
	snap := r.Snapshot()
	snap.Counters["x"] = 999
	snap.Counters["new"] = 1
	if got := r.Counter("x"); got != 7 {
		t.Errorf("mutating snapshot changed live counter: x = %d", got)
	}
	if got := r.Counter("new"); got != 0 {
		t.Errorf("mutating snapshot created live counter: new = %d", got)
	}
}

// TestSnapshotCounterTable pins the chaos harness's campaign report:
// counters only, sorted by name, a counter touched with a zero delta
// still listed.
func TestSnapshotCounterTable(t *testing.T) {
	r := NewRegistry()
	r.Add("faults.crash", 3)
	r.Add("checks.routing", 12)
	r.Add("net.dropped", 0)
	r.ObserveInt("hops", 2)
	want := "counter         value\n" +
		"--------------  -----\n" +
		"checks.routing  12   \n" +
		"faults.crash    3    \n" +
		"net.dropped     0    \n"
	if got := r.Snapshot().CounterTable(); got != want {
		t.Fatalf("CounterTable =\n%s\nwant\n%s", got, want)
	}
}
