package tcpnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbay/internal/transport"
)

// BenchmarkLoopbackRTT is the transport's latency rung: one small message
// each way per iteration on an otherwise idle pair, default Config.
func BenchmarkLoopbackRTT(b *testing.B) {
	roundTrip := pingPong(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkCoalescerThroughput is the throughput rung: saturating senders
// push b.N small messages at one peer. writes/msg is the share of messages
// that cost a write syscall of their own — every message not inside a
// batch frame, plus one per batch frame.
func BenchmarkCoalescerThroughput(b *testing.B) {
	for _, senders := range []int{1, 8} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			n1, n2, a1, a2 := pair(b, Config{}, b.N+1)
			e1, _ := n1.NewEndpoint(a1, func(transport.Addr, any) {})
			var got atomic.Int64
			n2.NewEndpoint(a2, func(transport.Addr, any) { got.Add(1) })
			if err := e1.Send(a2, 0); err != nil { // dial
				b.Fatal(err)
			}
			for got.Load() < 1 {
				time.Sleep(time.Millisecond)
			}
			before := n1.Stats()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				share := b.N / senders
				if g == 0 {
					share += b.N % senders
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < share; i++ {
						if err := e1.Send(a2, i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for got.Load() < int64(b.N)+1 {
				time.Sleep(50 * time.Microsecond)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			after := n1.Stats()
			msgs := float64(b.N)
			batched := float64(after.BatchedMessages - before.BatchedMessages)
			frames := float64(after.BatchFrames - before.BatchFrames)
			b.ReportMetric((msgs-batched+frames)/msgs, "writes/msg")
			b.ReportMetric(msgs/elapsed.Seconds(), "msg/s")
		})
	}
}
