package tcpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"rbay/internal/pastry"
	"rbay/internal/transport"
)

// plantConn caches a pre-built connection in n, as if it had been dialed
// earlier (no read loop, no heartbeat — the test controls its fate).
func plantConn(n *Network, hostport string, c net.Conn, peers ...transport.Addr) *clientConn {
	cc := n.newClientConn(hostport, c)
	for _, a := range peers {
		cc.track(a)
	}
	n.mu.Lock()
	n.conns[hostport] = cc
	n.mu.Unlock()
	return cc
}

// TestSendRedialsStaleConn reproduces the stale-connection bug: a cached
// conn whose socket has died must not poison the next Send. On the default
// Config the connection's writer sees the failed write; it has to drop the
// conn, redial, and deliver the message it was holding.
func TestSendRedialsStaleConn(t *testing.T) {
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

	// Plant a cached conn whose socket is already dead: every write on it
	// fails, exactly like a conn left over from before a peer restart.
	c, err := net.Dial("tcp", n2.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	plantConn(n1, n2.ListenAddr(), c)

	if err := e1.Send(addr("b", "h2"), "after-restart"); err != nil {
		t.Fatalf("send over stale conn should redial, got %v", err)
	}
	waitFor(t, func() bool { return len(got.snapshot()) == 1 })
	if s := n1.Stats(); s.SendRetries == 0 || s.ConnDrops == 0 {
		t.Errorf("stats should show the retry: %+v", s)
	}
}

// TestSendFailureStartsReconnect is the regression test for the
// reconnect-suppression bug: the writer retires a conn whose write failed
// with connDead(cc, false), and because connDead is first-caller-wins,
// beating the conn read loop to it must not suppress background reconnect
// — and therefore OnPeerDown — for a genuinely dead peer. The peer here is
// already gone and the planted conn has no read loop, so only the write
// can detect it: the redial within the SendRetries budget fails, the
// message is counted in SendFailures, and then reconnect must still run
// and OnPeerDown must still fire. Send itself returns nil: a write failure
// on a cached connection is not a synchronous error.
func TestSendFailureStartsReconnect(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	n1, err := ListenConfig("127.0.0.1:0", resolver, Config{
		SendRetries:       1,
		ReconnectAttempts: 1,
		BackoffMin:        5 * time.Millisecond,
		BackoffMax:        10 * time.Millisecond,
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	// A peer that is already gone: grab a real host:port, then kill it.
	n2, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	hostport := n2.ListenAddr()
	peer := addr("b", "h2")
	table[addr("a", "h1")] = n1.ListenAddr()
	table[peer] = hostport
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}

	var downMu sync.Mutex
	var down []transport.Addr
	n1.OnPeerDown(func(a transport.Addr) {
		downMu.Lock()
		down = append(down, a)
		downMu.Unlock()
	})

	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})

	// The dead cached conn: a socket pair whose both ends are closed.
	c1, c2 := net.Pipe()
	_ = c1.Close()
	_ = c2.Close()
	plantConn(n1, hostport, c1, peer)

	// The write fails, the writer's redial fails (peer is gone), and the
	// retry budget runs out.
	if err := e1.Send(peer, "doomed"); err != nil {
		t.Fatalf("send over a cached conn should be accepted, got %v", err)
	}
	waitFor(t, func() bool { return n1.Stats().SendFailures == 1 })

	// The fix: exhausting that budget hands the peer to the background
	// reconnect loop, which exhausts its own budget and declares the peer
	// down.
	waitFor(t, func() bool {
		downMu.Lock()
		defer downMu.Unlock()
		for _, a := range down {
			if a == peer {
				return true
			}
		}
		return false
	})
	if s := n1.Stats(); s.PeerDownEvents == 0 || s.Redials == 0 {
		t.Errorf("expected redials and peer-down events, got %+v", s)
	}
}

// TestRestartRecovery is the kill-and-restart scenario from real
// deployments: a peer process dies and comes back on the same host:port,
// and the very first subsequent Send from a surviving peer must succeed
// and be delivered — no spurious ErrUnreachable from the stale conn.
func TestRestartRecovery(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	// Background reconnect off on the sender so the test exercises the
	// pure send path against whatever conn state EOF cleanup leaves.
	n1, err := ListenConfig("127.0.0.1:0", resolver, Config{ReconnectAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	hostport := n2.ListenAddr()
	table[addr("a", "h1")] = n1.ListenAddr()
	table[addr("b", "h2")] = hostport

	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
	var got collect
	n2.NewEndpoint(addr("b", "h2"), func(_ transport.Addr, m any) { got.add(m) })

	if err := e1.Send(addr("b", "h2"), "before"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got.snapshot()) == 1 })

	// Kill the peer. The sender's conn reader sees EOF and retires the
	// cached conn.
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		n1.mu.Lock()
		defer n1.mu.Unlock()
		return len(n1.conns) == 0
	})

	// Restart on the same address.
	n2b, err := Listen(hostport, resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n2b.Close()
	var got2 collect
	n2b.NewEndpoint(addr("b", "h2"), func(_ transport.Addr, m any) { got2.add(m) })

	if err := e1.Send(addr("b", "h2"), "after"); err != nil {
		t.Fatalf("first send after peer restart failed: %v", err)
	}
	waitFor(t, func() bool { return len(got2.snapshot()) == 1 })
	if got2.snapshot()[0] != "after" {
		t.Errorf("delivered %v, want \"after\"", got2.snapshot()[0])
	}
}

// TestSlowEndpointNoHeadOfLineBlocking proves one endpoint with a stuck
// handler and a full queue cannot stall deliveries to other endpoints on
// the same listener.
func TestSlowEndpointNoHeadOfLineBlocking(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	n1, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenConfig("127.0.0.1:0", resolver, Config{QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	table[addr("a", "h1")] = n1.ListenAddr()
	table[addr("b", "slow")] = n2.ListenAddr()
	table[addr("b", "fast")] = n2.ListenAddr()

	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
	unblock := make(chan struct{})
	n2.NewEndpoint(addr("b", "slow"), func(transport.Addr, any) { <-unblock })
	var fast collect
	n2.NewEndpoint(addr("b", "fast"), func(_ transport.Addr, m any) { fast.add(m) })
	defer close(unblock)

	// Saturate the slow endpoint far past its queue bound...
	for i := 0; i < 20; i++ {
		if err := e1.Send(addr("b", "slow"), i); err != nil {
			t.Fatal(err)
		}
	}
	// ...then a delivery to the fast endpoint must still get through.
	if err := e1.Send(addr("b", "fast"), "through"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(fast.snapshot()) == 1 })
	if s := n2.Stats(); s.QueueDrops == 0 {
		t.Errorf("expected overflow drops on the slow endpoint, stats %+v", s)
	}
}

// TestHeartbeatPeerDownTriggersPastryRepair is the end-to-end rbayd-style
// scenario: two Pastry nodes over real TCP, one process dies, and the
// survivor's transport heartbeat/reconnect machinery — not simnet chaos
// injection, not Pastry's own probes (disabled here) — must surface the
// failure into NotePeerFailure so leaf-set repair fires.
func TestHeartbeatPeerDownTriggersPastryRepair(t *testing.T) {
	pastry.RegisterWire()
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	fast := Config{
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatMisses:   2,
		ReconnectAttempts: 2,
		BackoffMin:        10 * time.Millisecond,
		BackoffMax:        40 * time.Millisecond,
		DialTimeout:       time.Second,
	}
	n1, err := ListenConfig("127.0.0.1:0", resolver, fast)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenConfig("127.0.0.1:0", resolver, fast)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := addr("east", "n1"), addr("west", "n2")
	table[a1] = n1.ListenAddr()
	table[a2] = n2.ListenAddr()

	node1, err := pastry.NewNode(n1, a1, pastry.Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	var failMu sync.Mutex
	var failed []pastry.Entry
	node1.OnFailure(func(e pastry.Entry) {
		failMu.Lock()
		failed = append(failed, e)
		failMu.Unlock()
	})
	node2, err := pastry.NewNode(n2, a2, pastry.Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The wiring rbay.NewTCPNode installs for real daemons.
	n1.OnPeerDown(func(a transport.Addr) {
		node1.After(0, func() { node1.NoteAddrFailure(a) })
	})

	node1.BootstrapAlone()
	joined := make(chan struct{})
	if err := node2.JoinGlobal(a1, func() { close(joined) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("join timed out")
	}
	// node1 must know node2 before we can observe repair.
	waitFor(t, func() bool {
		ok := make(chan bool, 1)
		node1.After(0, func() { ok <- len(node1.Leaf(pastry.GlobalScope).Members()) == 1 })
		return <-ok
	})

	// Kill the peer process outright.
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}

	// Heartbeat EOF → reconnect attempts exhaust → OnPeerDown →
	// NoteAddrFailure → leaf-set eviction + failure callback.
	waitFor(t, func() bool {
		failMu.Lock()
		defer failMu.Unlock()
		for _, e := range failed {
			if e.Addr == a2 {
				return true
			}
		}
		return false
	})
	waitFor(t, func() bool {
		ok := make(chan bool, 1)
		node1.After(0, func() { ok <- len(node1.Leaf(pastry.GlobalScope).Members()) == 0 })
		return <-ok
	})
	if s := n1.Stats(); s.PeerDownEvents == 0 {
		t.Errorf("expected peer-down events in stats, got %+v", s)
	}
}

// TestCloseSendRace hammers Send against Close under the race detector:
// a dial that completes after Close must not be re-cached (socket leak)
// or resurrect a closed network.
func TestCloseSendRace(t *testing.T) {
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	n2, err := Listen("127.0.0.1:0", resolver)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	table[addr("b", "h2")] = n2.ListenAddr()
	n2.NewEndpoint(addr("b", "h2"), func(transport.Addr, any) {})

	for i := 0; i < 20; i++ {
		n1, err := Listen("127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		e1, _ := n1.NewEndpoint(addr("a", "h1"), func(transport.Addr, any) {})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = e1.Send(addr("b", "h2"), j)
			}
		}()
		if err := n1.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		n1.mu.Lock()
		leaked := len(n1.conns)
		n1.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("iteration %d: %d conns cached after Close", i, leaked)
		}
	}
}
