package tcpnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rbay/internal/core"
	"rbay/internal/ids"
	"rbay/internal/pastry"
	"rbay/internal/transport"
)

func addr(site, host string) transport.Addr { return transport.Addr{Site: site, Host: host} }

// collect is a concurrency-safe message sink.
type collect struct {
	mu   sync.Mutex
	msgs []any
}

func (c *collect) add(m any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collect) snapshot() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]any(nil), c.msgs...)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never met")
}

// pair is two networks on loopback, a → b. bQueueLen is how many messages
// the test sends b: a queue that long never drops a delivery, so the test
// can count them (0 takes the default).
func pair(t testing.TB, cfg Config, bQueueLen int) (a, b *Network, aAddr, bAddr transport.Addr) {
	t.Helper()
	table := map[transport.Addr]string{}
	resolver := func(x transport.Addr) (string, error) { return StaticResolver(table)(x) }
	a, err := ListenConfig("127.0.0.1:0", resolver, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err = ListenConfig("127.0.0.1:0", resolver, Config{QueueLen: bQueueLen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	aAddr, bAddr = addr("a", "h1"), addr("b", "h2")
	table[aAddr] = a.ListenAddr()
	table[bAddr] = b.ListenAddr()
	return a, b, aAddr, bAddr
}

// pingPong returns a function that sends one small message from a to b and
// waits for b's echo, on default Configs, with both directions dialed.
func pingPong(t testing.TB) (roundTrip func()) {
	t.Helper()
	n1, n2, a1, a2 := pair(t, Config{}, 0)
	pong := make(chan struct{}, 1)
	e1, _ := n1.NewEndpoint(a1, func(transport.Addr, any) { pong <- struct{}{} })
	var e2 transport.Endpoint
	e2, _ = n2.NewEndpoint(a2, func(from transport.Addr, m any) { _ = e2.Send(from, m) })
	roundTrip = func() {
		if err := e1.Send(a2, 1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			t.Fatal("no reply")
		}
	}
	roundTrip()
	return roundTrip
}

func TestLocalAndRemoteDelivery(t *testing.T) {
	core.RegisterWire()
	var table map[transport.Addr]string
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
	table = map[transport.Addr]string{
		addr("a", "h1"): n1.ListenAddr(),
		addr("a", "h2"): n1.ListenAddr(), // same process
		addr("b", "h3"): n2.ListenAddr(),
	}

	var got1, got2, got3 collect
	e1, _ := n1.NewEndpoint(addr("a", "h1"), func(_ transport.Addr, m any) { got1.add(m) })
	if _, err := n1.NewEndpoint(addr("a", "h1"), nil); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	n1.NewEndpoint(addr("a", "h2"), func(_ transport.Addr, m any) { got2.add(m) })
	n2.NewEndpoint(addr("b", "h3"), func(from transport.Addr, m any) { got3.add(m) })

	// Local fast path (same Network).
	if err := e1.Send(addr("a", "h2"), "local"); err != nil {
		t.Fatal(err)
	}
	// Remote over TCP with a struct payload.
	if err := e1.Send(addr("b", "h3"), pastry.Entry{ID: ids.HashOf("x"), Addr: addr("a", "h1")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got2.snapshot()) == 1 && len(got3.snapshot()) == 1 })
	if got2.snapshot()[0] != "local" {
		t.Errorf("local payload = %v", got2.snapshot()[0])
	}
	entry, ok := got3.snapshot()[0].(pastry.Entry)
	if !ok || entry.Addr != addr("a", "h1") {
		t.Errorf("remote payload = %#v", got3.snapshot()[0])
	}

	// Unknown address fails synchronously.
	if err := e1.Send(addr("z", "nowhere"), 1); err == nil {
		t.Error("send to unresolvable address should fail")
	}
}

func TestTimerAndCancel(t *testing.T) {
	n, err := Listen("127.0.0.1:0", StaticResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ep, _ := n.NewEndpoint(addr("a", "h"), func(transport.Addr, any) {})
	var mu sync.Mutex
	fired := 0
	ep.After(20*time.Millisecond, func() { mu.Lock(); fired++; mu.Unlock() })
	cancel := ep.After(20*time.Millisecond, func() { mu.Lock(); fired += 10; mu.Unlock() })
	if !cancel() {
		t.Error("cancel should succeed")
	}
	if cancel() {
		t.Error("double cancel")
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// pingApp answers a routed request ID with a direct reply naming the node
// that delivered it, and settles the replies it receives.
type pingApp struct{}

func (pingApp) Deliver(n *pastry.Node, m *pastry.Message) {
	_ = n.SendApp(m.Origin.Addr, "ping", map[string]any{"id": m.Payload, "from": "pong:" + n.ID().Short()})
}
func (pingApp) Forward(*pastry.Node, *pastry.Message, pastry.Entry) bool { return true }
func (pingApp) Direct(n *pastry.Node, _ pastry.Entry, payload any) {
	if r, ok := payload.(map[string]any); ok {
		id, _ := r["id"].(uint64)
		n.Settle(id, r, nil)
	}
}

// TestPastryOverTCP runs a real multi-endpoint Pastry overlay over
// loopback TCP — the same protocol code the simulator runs.
func TestPastryOverTCP(t *testing.T) {
	pastry.RegisterWire()
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) { return StaticResolver(table)(a) }

	// Two processes (Networks), several nodes each.
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

	var nodes []*pastry.Node
	for i := 0; i < 6; i++ {
		a := addr("east", fmt.Sprintf("n%d", i))
		table[a] = n1.ListenAddr()
		node, err := pastry.NewNode(n1, a, pastry.Config{LeafHalf: 4})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for i := 0; i < 6; i++ {
		a := addr("west", fmt.Sprintf("n%d", i))
		table[a] = n2.ListenAddr()
		node, err := pastry.NewNode(n2, a, pastry.Config{LeafHalf: 4})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}

	// Join sequentially through the first node.
	nodes[0].BootstrapAlone()
	for _, n := range nodes[1:] {
		done := make(chan struct{})
		seed := nodes[0].Addr()
		// Joins run on the dispatch goroutine; drive from outside via a
		// helper endpoint? JoinGlobal is safe to call pre-traffic.
		if err := n.JoinGlobal(seed, func() { close(done) }); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("node %v join timed out", n.Addr())
		}
	}

	// Route a request and get a reply across process boundaries: the
	// delivering node answers directly, and the reply settles the call the
	// origin is awaiting.
	for _, n := range nodes {
		n.Register("ping", pingApp{})
	}
	reply := make(chan string, 1)
	key := ids.HashOf("cross-process-key")
	origin := nodes[11]
	origin.After(0, func() { // Await belongs to the node's event context
		id := origin.Await(10*time.Second, map[string]any{}, func(r any, err error) {
			if err != nil {
				reply <- "err:" + err.Error()
				return
			}
			reply <- r.(map[string]any)["from"].(string)
		})
		if err := origin.Route("ping", key, id); err != nil {
			origin.Settle(id, nil, err)
		}
	})
	select {
	case got := <-reply:
		if len(got) < 5 || got[:5] != "pong:" {
			t.Fatalf("reply = %q", got)
		}
		// The responder must be the globally numerically closest node.
		best := nodes[0]
		for _, n := range nodes[1:] {
			if n.ID().CloserToThan(key, best.ID()) {
				best = n
			}
		}
		if got[5:] != best.ID().Short() {
			t.Fatalf("reply from %s, want closest %s", got[5:], best.ID().Short())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("routed request timed out")
	}
}
