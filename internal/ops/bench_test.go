package ops

import (
	"fmt"
	"testing"

	"rbay/internal/store"
)

// BenchmarkOpsSubmit measures the gateway's accept path — validate,
// dedup, create, WAL-persist — the work done on the HTTP goroutine
// before a 202. Each submit waits for the Sync covering its op record;
// concurrent submits coalesce into shared fsyncs, as they do in rbayd.
func BenchmarkOpsSubmit(b *testing.B) {
	fed := newFed(b)
	l, _, err := store.Open(store.NewMemDir(), store.Options{
		Policy:       store.SyncAlways,
		CompactEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := testEngine(fed, l, Config{QueueMax: 1 << 30})

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := e.Submit(Request{
				Kind:    KindAttrs,
				Tenant:  "bench",
				Updates: []Update{{Name: fmt.Sprintf("load%d", i%64), Value: float64(i)}},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
