// WAL codec and group-commit benchmarks (docs/RECOVERY.md): the frame
// encoder, and fsync coalescing under concurrent appenders. Run with
//
//	make bench-wal
//
// BenchmarkWALAppendBinary isolates encode+buffer cost (SyncNever on an
// in-memory dir). BenchmarkWALGroupCommit measures the durable path: every append blocks
// until its group's fsync, so ns/op includes the (simulated) flush and
// the reported fsyncs/op shows the coalescing factor.
package rbay_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rbay/internal/metrics"
	"rbay/internal/store"
)

// walWorkload is one representative cycle of the durable hot paths:
// scalar sets across the tagged-value kinds, a batched churn flush, a
// delete, and a lease reserve/commit pair — the same mix the churn
// pipeline and ops engine write in production. All inputs are built
// outside the timed loop so the benchmark isolates the append path
// (encode + buffer) rather than the caller's own allocations.
type walWorkload struct {
	loads []any // pre-boxed float64 values
	hosts []any // pre-boxed hostname strings
	batch [][]store.BatchSet
	exp   time.Time
}

func newWALWorkload() *walWorkload {
	w := &walWorkload{exp: time.Unix(1700000000, 0)}
	for i := 0; i < 100; i++ {
		w.loads = append(w.loads, float64(i)/100)
	}
	for i := 0; i < 64; i++ {
		w.hosts = append(w.hosts, fmt.Sprintf("node-%d.site", i))
	}
	for i := 0; i < 16; i++ {
		kvs := make([]store.BatchSet, 8)
		for j := range kvs {
			kvs[j] = store.BatchSet{Name: fmt.Sprintf("disk%d_free", j), Value: float64((i + j) % 512)}
		}
		w.batch = append(w.batch, kvs)
	}
	return w
}

func (w *walWorkload) run(l *store.Log, i int) {
	l.RecordSet("cpu_load", w.loads[i%len(w.loads)])
	l.RecordSet("hostname", w.hosts[i%len(w.hosts)])
	l.RecordSet("gpu", i%2 == 0)
	l.RecordSetBatch(w.batch[i%len(w.batch)])
	l.RecordDelete("scratch")
	l.RecordReserve("bench-query", w.exp)
	l.RecordCommit("bench-query")
}

// BenchmarkWALAppendBinary keeps its name: `make bench` and `make bench-wal`
// select it by pattern, and CHANGES.md quotes its numbers under it.
func BenchmarkWALAppendBinary(b *testing.B) {
	l, _, err := store.Open(store.NewMemDir(), store.Options{
		Policy:       store.SyncNever,
		CompactEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	w := newWALWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.run(l, i)
	}
}

// BenchmarkWALGroupCommit: N goroutines append concurrently under
// -fsync=always; each op is one RecordSet made durable by Sync. fsyncs/op
// < 1 means concurrent Syncs shared a flush.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, appenders := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("appenders-%d", appenders), func(b *testing.B) {
			reg := metrics.NewRegistry()
			l, _, err := store.Open(store.NewMemDir(), store.Options{
				Policy:       store.SyncAlways,
				CompactEvery: 1 << 30,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			l.SetMetrics(reg)

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / appenders
			extra := b.N % appenders
			for g := 0; g < appenders; g++ {
				n := per
				if g < extra {
					n++
				}
				wg.Add(1)
				go func(g, n int) {
					defer wg.Done()
					name := fmt.Sprintf("load%d", g)
					for i := 0; i < n; i++ {
						l.RecordSet(name, float64(i))
						if err := l.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}(g, n)
			}
			wg.Wait()
			b.StopTimer()
			if fs := reg.Counter("rbay_wal_fsync_total"); fs > 0 {
				b.ReportMetric(float64(fs)/float64(b.N), "fsyncs/op")
			}
		})
	}
}
