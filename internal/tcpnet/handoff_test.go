package tcpnet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rbay/internal/transport"
)

// TestPerSenderFIFO: eight goroutines push through one connection's
// pending buffer while heartbeats ask the same writer for pings. Nothing
// may be lost or reordered within a sender, and the interleaved pings must
// not corrupt the frame stream (the receiver would drop the connection).
func TestPerSenderFIFO(t *testing.T) {
	const senders, each = 8, 5000
	n1, n2, a1, a2 := pair(t, Config{HeartbeatInterval: time.Millisecond, HeartbeatMisses: 5000}, senders*each)

	e1, _ := n1.NewEndpoint(a1, func(transport.Addr, any) {})
	var mu sync.Mutex
	next := make([]int, senders)
	total, bad := 0, ""
	n2.NewEndpoint(a2, func(_ transport.Addr, m any) {
		g, i := m.(int)>>20, m.(int)&(1<<20-1)
		mu.Lock()
		defer mu.Unlock()
		if i != next[g] && bad == "" {
			bad = fmt.Sprintf("sender %d: message %d arrived where %d was due", g, i, next[g])
		}
		next[g] = i + 1
		total++
	})

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := e1.Send(a2, g<<20|i); err != nil {
					t.Errorf("sender %d message %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == senders*each
	})
	mu.Lock()
	defer mu.Unlock()
	if bad != "" {
		t.Fatal(bad)
	}
	if s := n1.Stats(); s.HeartbeatsSent == 0 || s.ConnDrops != 0 {
		t.Errorf("pings should have shared the writer with the data, on one connection: %+v", s)
	}
}

// blockedPeer starts a network (BatchBytes 4096) with a planted connection
// to a peer that accepts but never reads, socket buffers small enough to
// fill at once, and a goroutine sending to it; it returns once that sender
// has made no progress for a while, having checked on the way that what
// waits for the writer never exceeds the cap. sent ticks after every Send
// the goroutine gets through; it stops when a Send fails or the test ends.
func blockedPeer(t *testing.T) (n *Network, cc *clientConn, sent <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c.(*net.TCPConn).SetReadBuffer(4096)
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		_ = l.Close()
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			_ = c.Close()
		}
	})

	peer := addr("b", "stuck")
	n, err = ListenConfig("127.0.0.1:0", StaticResolver(map[transport.Addr]string{peer: l.Addr().String()}),
		Config{BatchBytes: 4096, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.(*net.TCPConn).SetWriteBuffer(4096)
	cc = plantConn(n, l.Addr().String(), c, peer)
	ep, err := n.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan error)
	msg := strings.Repeat("x", 1000)
	go func() {
		for {
			err := ep.Send(peer, msg)
			select {
			case ticks <- err:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		select {
		case err := <-ticks:
			if err != nil {
				t.Fatalf("send before the peer blocked: %v", err)
			}
			cc.mu.Lock()
			pending := 0
			if cc.pend != nil {
				pending = cc.pend.Len()
			}
			cc.mu.Unlock()
			if pending > n.cfg.BatchBytes {
				t.Fatalf("%d bytes pending, cap is %d", pending, n.cfg.BatchBytes)
			}
		case <-time.After(300 * time.Millisecond):
			return n, cc, ticks
		}
	}
}

// TestBackPressure: against a peer that accepts but never reads, the
// pending buffer stays within BatchBytes — the sender waits instead — and
// the waiting Send is released when the connection is retired.
func TestBackPressure(t *testing.T) {
	n1, cc, sent := blockedPeer(t)
	defer n1.Close()

	n1.connDead(cc, false)
	select {
	case err := <-sent:
		// Turned away by the dead connection, the send dialed a fresh one.
		if err != nil {
			t.Fatalf("send released by retirement: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after its connection was retired")
	}
}

// TestCloseReturnsWithBlockedPeer: Close drains under a deadline, so a
// peer that has stopped reading delays it by closeDrain, not forever, and
// the Send that was waiting for buffer space returns.
func TestCloseReturnsWithBlockedPeer(t *testing.T) {
	n1, _, sent := blockedPeer(t)

	closed := make(chan error, 1)
	go func() { closed <- n1.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(closeDrain + 5*time.Second):
		t.Fatal("Close hung on a peer that does not read")
	}
	for failed := false; !failed; {
		select {
		case err := <-sent:
			failed = err != nil
		case <-time.After(5 * time.Second):
			t.Fatal("Send still blocked after Close")
		}
	}
}

// TestCloseFlushesPending: a Send that returned nil immediately before
// Close must reach the peer — a departing node's leave and release
// messages are exactly such sends.
func TestCloseFlushesPending(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }
	n2, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	table[addr("b", "h2")] = n2.ListenAddr()
	var got collect
	n2.NewEndpoint(addr("b", "h2"), func(_ transport.Addr, m any) { got.add(m) })

	for round := 0; round < 20; round++ {
		n1, err := Listen("127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
		if err := e1.Send(addr("b", "h2"), round); err != nil {
			t.Fatal(err)
		}
		if err := n1.Close(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return len(got.snapshot()) == round+1 })
		if m := got.snapshot()[round]; m != round {
			t.Fatalf("round %d delivered %v", round, m)
		}
	}
}

// TestIdleSendIsNotTimed: on the default Config an idle connection adds a
// goroutine hand-off to a message, not a timer. A loopback round trip
// behind a 500µs flush timer took 2.3 ms; a millisecond is far above what
// the writer costs and far below what any timer does.
func TestIdleSendIsNotTimed(t *testing.T) {
	roundTrip := pingPong(t)
	samples := make([]time.Duration, 200)
	for i := range samples {
		start := time.Now()
		roundTrip()
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if median := samples[len(samples)/2]; median >= time.Millisecond {
		t.Fatalf("median idle round trip %v, want < 1ms (p10 %v, p90 %v)", median, samples[20], samples[180])
	}
}
