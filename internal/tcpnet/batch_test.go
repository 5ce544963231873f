package tcpnet

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rbay/internal/transport"
	"rbay/internal/wire"
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

// TestUndecodableEntryCostsOnlyItself: a newer peer sends, inside a batch,
// a message under a tag this build does not know. That entry is dropped
// and counted; the rest of the batch and the next frame arrive, and the
// connection stays up.
func TestUndecodableEntryCostsOnlyItself(t *testing.T) {
	n, err := Listen("127.0.0.1:0", StaticResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	to, from := addr("b", "h2"), addr("a", "h1")
	var got collect
	n.NewEndpoint(to, func(_ transport.Addr, m any) { got.add(m) })
	conn, err := net.Dial("tcp", n.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	entry := func(payload any) []byte {
		e := wire.GetEncoder()
		defer wire.PutEncoder(e)
		e.DataRest(to, from, payload)
		return append([]byte(nil), e.Bytes()...)
	}
	unknown := entry(nil)
	unknown[len(unknown)-1] = 250 // a tag no package registers, in place of nil's
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	at := e.BeginFrame(wire.KindBatch, 1)
	e.Uvarint(3)
	for _, b := range [][]byte{entry("one"), unknown, entry("two")} {
		e.Uvarint(uint64(len(b)))
		e.Append(b)
	}
	e.EndFrame(at)
	at = e.BeginFrame(wire.KindData, 2)
	e.DataRest(to, from, "three")
	e.EndFrame(at)
	at = e.BeginFrame(wire.KindPing, 3)
	e.EndFrame(at)
	if _, err := conn.Write(e.Bytes()); err != nil {
		t.Fatal(err)
	}

	// The pong comes back on the same connection: it was not dropped.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, _, rest, err := wire.NewFrameReader(conn, wire.DefaultMaxFrame).Next()
	if err != nil || kind != wire.KindPong || wire.NewDecoder(rest).Uvarint() != 3 {
		t.Fatalf("after the batch: kind=%d err=%v, want the pong for ping 3", kind, err)
	}
	waitFor(t, func() bool { return len(got.snapshot()) == 3 })
	if msgs := got.snapshot(); !reflect.DeepEqual(msgs, []any{"one", "two", "three"}) {
		t.Fatalf("delivered %v", msgs)
	}
	if st := n.Stats(); st.DecodeDrops != 1 || !strings.Contains(st.String(), "decodedrops=1") {
		t.Fatalf("DecodeDrops = %d (%s), want 1", st.DecodeDrops, st)
	}
}
