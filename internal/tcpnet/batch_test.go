package tcpnet

import (
	"fmt"
	"strings"
	"testing"

	"rbay/internal/transport"
)

// TestBatchCoalescing: there is no flush window — batching comes from
// load alone. A burst sent faster than one write syscall completes must
// arrive complete and in order, and the stats must show that what piled up
// behind the writer traveled in batch frames rather than one frame each.
func TestBatchCoalescing(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	n1, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	const burst = 2000
	n2, err := ListenConfig("127.0.0.1:0", resolver, Config{QueueLen: burst}) // room for all: none dropped
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	table[addr("a", "h1")] = n1.ListenAddr()
	table[addr("b", "h2")] = n2.ListenAddr()

	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
	var got collect
	n2.NewEndpoint(addr("b", "h2"), func(_ transport.Addr, m any) { got.add(m) })

	for i := 0; i < burst; i++ {
		if err := e1.Send(addr("b", "h2"), i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(got.snapshot()) == burst })
	for i, m := range got.snapshot() {
		if m != i {
			t.Fatalf("message %d = %v (out of order or corrupt)", i, m)
		}
	}
	s := n1.Stats()
	if s.BatchFrames == 0 || s.BatchedMessages < 2 {
		t.Errorf("burst should coalesce into batch frames, stats %+v", s)
	}
}

// TestBatchSizeCapFlush: a sender that reaches BatchBytes waits for the
// writer, and ordering holds across that hand-off, including messages too
// large to batch at all.
func TestBatchSizeCapFlush(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	n1, err := ListenConfig("127.0.0.1:0", resolver, Config{BatchBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	table[addr("a", "h1")] = n1.ListenAddr()
	table[addr("b", "h2")] = n2.ListenAddr()

	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
	var got collect
	n2.NewEndpoint(addr("b", "h2"), func(_ transport.Addr, m any) { got.add(m) })

	// Interleave small messages with ones larger than the whole batch cap.
	var want []any
	for i := 0; i < 10; i++ {
		small := fmt.Sprintf("s%02d-%s", i, strings.Repeat("x", 100))
		huge := fmt.Sprintf("h%02d-%s", i, strings.Repeat("y", 2000))
		for _, m := range []string{small, huge} {
			if err := e1.Send(addr("b", "h2"), m); err != nil {
				t.Fatal(err)
			}
			want = append(want, m)
		}
	}
	waitFor(t, func() bool { return len(got.snapshot()) == len(want) })
	snap := got.snapshot()
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("message %d = %.20v..., want %.20v...", i, snap[i], want[i])
		}
	}
}

// TestUnregisteredPayloadFailsWithoutKillingConn: an unencodable payload
// is the caller's bug; it must error synchronously and leave the cached
// connection healthy for the next (valid) send.
func TestUnregisteredPayloadFailsWithoutKillingConn(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	n1, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	table[addr("a", "h1")] = n1.ListenAddr()
	table[addr("b", "h2")] = n2.ListenAddr()

	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
	var got collect
	n2.NewEndpoint(addr("b", "h2"), func(_ transport.Addr, m any) { got.add(m) })

	if err := e1.Send(addr("b", "h2"), "warm-up"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got.snapshot()) == 1 })
	drops := n1.Stats().ConnDrops

	type notRegistered struct{ X int }
	if err := e1.Send(addr("b", "h2"), notRegistered{1}); err == nil {
		t.Fatal("unregistered payload should fail to encode")
	}
	if err := e1.Send(addr("b", "h2"), "still-works"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got.snapshot()) == 2 })
	if n1.Stats().ConnDrops != drops {
		t.Errorf("encode failure must not retire the connection (drops %d -> %d)",
			drops, n1.Stats().ConnDrops)
	}
}
