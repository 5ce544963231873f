package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	var r Dist[time.Duration]
	if r.Mean() != 0 || r.Std() != 0 || r.Min() != 0 || r.Max() != 0 || r.Percentile(50) != 0 {
		t.Fatal("empty recorder should be all zeros")
	}
	for _, ms := range []int{10, 20, 30, 40} {
		r.Add(time.Duration(ms) * time.Millisecond)
	}
	if r.Count() != 4 {
		t.Errorf("count = %d", r.Count())
	}
	if r.Mean() != 25*time.Millisecond {
		t.Errorf("mean = %v", r.Mean())
	}
	if r.Min() != 10*time.Millisecond || r.Max() != 40*time.Millisecond {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
	if got := r.Percentile(50); got != 20*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := r.Percentile(100); got != 40*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if got := r.Percentile(0); got != 10*time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	// std of {10,20,30,40} ms: sqrt(125) ≈ 11.18ms
	want := time.Duration(11180339) * time.Nanosecond
	if diff := r.Std() - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("std = %v, want ≈%v", r.Std(), want)
	}
}

func TestCDFMonotoneAndComplete(t *testing.T) {
	var r Dist[time.Duration]
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		r.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
	cdf := r.CDF(50)
	if len(cdf) != 50 {
		t.Fatalf("points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].X < cdf[i-1].X || cdf[i].P < cdf[i-1].P {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if last := cdf[len(cdf)-1]; last.P != 1.0 || last.X != r.Max() {
		t.Fatalf("CDF must end at (max, 1): %+v", last)
	}
	if r.CDF(0) != nil || new(Dist[time.Duration]).CDF(10) != nil {
		t.Fatal("degenerate CDFs should be nil")
	}
}

// Property: percentile is monotone in p and brackets min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var r Dist[time.Duration]
		for _, v := range raw {
			r.Add(time.Duration(v) * time.Microsecond)
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := r.Percentile(a), r.Percentile(b)
		return pa <= pb && pa >= r.Min() && pb <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIntDist: the same type over counts. An integer Dist is exact for
// order statistics and drops the fraction of its mean; a float64 one
// keeps it (what Fig. 8's hop counts use).
func TestIntDist(t *testing.T) {
	var d Dist[int]
	var f Dist[float64]
	if d.Mean() != 0 || d.Std() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Fatal("empty dist should be zeros")
	}
	for _, v := range []int{3, 1, 4, 1, 5} {
		d.Add(v)
		f.Add(float64(v))
	}
	if d.Count() != 5 || d.Min() != 1 || d.Max() != 5 || d.Percentile(50) != 3 {
		t.Fatalf("count/min/max/p50 = %d/%d/%d/%d", d.Count(), d.Min(), d.Max(), d.Percentile(50))
	}
	if d.Mean() != 2 || f.Mean() != 2.8 {
		t.Errorf("means = %v (int), %v (float64), want 2 and 2.8", d.Mean(), f.Mean())
	}
	if std := f.Std(); std < 1.599 || std > 1.601 {
		t.Errorf("std = %v, want 1.6", std)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("site", "latency", "n")
	tb.AddRow("virginia", "93ms", 1000)
	tb.AddRow("saopaulo", "401ms", 987)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "site") || !strings.Contains(lines[0], "latency") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "virginia") || !strings.Contains(lines[3], "401ms") {
		t.Errorf("rows:\n%s", out)
	}
	// Columns aligned: every "latency" column starts at the same offset.
	off := strings.Index(lines[0], "latency")
	if !strings.HasPrefix(lines[2][off:], "93ms") && !strings.Contains(lines[2][off:off+8], "93ms") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestCDFSortedInputEqualsSortedSamples(t *testing.T) {
	var r Dist[time.Duration]
	vals := []time.Duration{5, 3, 9, 1, 7}
	for _, v := range vals {
		r.Add(v)
	}
	cdf := r.CDF(5)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, pt := range cdf {
		if pt.X != vals[i] {
			t.Fatalf("cdf[%d].X = %v, want %v", i, pt.X, vals[i])
		}
	}
}

// TestRecorderConcurrent feeds a Dist from many goroutines while readers
// summarize it; run with -race. Regression for the internal mutex:
// experiment harnesses record from concurrent workers.
func TestRecorderConcurrent(t *testing.T) {
	var r Dist[time.Duration]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(time.Duration(w*1000+i) * time.Microsecond)
				if i%20 == 0 {
					_ = r.Percentile(99)
					_ = r.Mean()
					_ = r.CDF(10)
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Count() != 8*200 {
		t.Fatalf("count = %d, want %d", r.Count(), 8*200)
	}
	if r.Min() > r.Max() {
		t.Fatal("min > max")
	}
}

// TestIntDistConcurrent races Add against the readers that scan without
// sorting (Mean, Std) as well as one that sorts (Max).
func TestIntDistConcurrent(t *testing.T) {
	var d Dist[int]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Add(w*1000 + i)
				if i%20 == 0 {
					_ = d.Mean()
					_ = d.Std()
					_ = d.Max()
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Count() != 8*200 {
		t.Fatalf("count = %d, want %d", d.Count(), 8*200)
	}
	if d.Min() != 0 || d.Max() != 7199 {
		t.Fatalf("min/max = %d/%d, want 0/7199", d.Min(), d.Max())
	}
}
