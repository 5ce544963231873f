package store

import (
	"fmt"
	"sync"
	"testing"

	"rbay/internal/metrics"
)

// BenchmarkAppend is what a node's event context pays per record: assign
// the sequence number, fold the state, encode into the pending buffer. No
// device call, no allocation. The buffer is handed to a zero-delay MemDir
// every 4096 records, off the clock, so it does not grow with b.N.
func BenchmarkAppend(b *testing.B) {
	l, _, err := Open(NewMemDir(), Options{Policy: SyncAlways, CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RecordCommit("bench-query")
		if i%4096 == 4095 {
			b.StopTimer()
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkAppendSync is append + the durability barrier from N
// goroutines at once on a zero-delay MemDir: the barrier's own cost, and
// how well concurrent callers share a flush (fsyncs/op).
func BenchmarkAppendSync(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%d-callers", callers), func(b *testing.B) {
			reg := metrics.NewRegistry()
			l, _, err := Open(NewMemDir(), Options{Policy: SyncAlways, CompactEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			l.SetMetrics(reg)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				n := b.N / callers
				if g < b.N%callers {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						l.RecordCommit("bench-query")
						if err := l.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(reg.Counter("rbay_wal_fsync_total"))/float64(b.N), "fsyncs/op")
		})
	}
}
