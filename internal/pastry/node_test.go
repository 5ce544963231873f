package pastry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rbay/internal/ids"
	"rbay/internal/simnet"
	"rbay/internal/transport"
)

// recordApp is a minimal Application that funnels deliveries to a callback.
type recordApp struct {
	onDeliver func(n *Node, m *Message)
}

func (a *recordApp) Deliver(n *Node, m *Message) {
	if a.onDeliver != nil {
		a.onDeliver(n, m)
	}
}
func (a *recordApp) Forward(*Node, *Message, Entry) bool { return true }
func (a *recordApp) Direct(*Node, Entry, any)            {}

func siteAddrs(nPerSite int, sites ...string) []transport.Addr {
	var out []transport.Addr
	for _, s := range sites {
		for i := 0; i < nPerSite; i++ {
			out = append(out, transport.Addr{Site: s, Host: fmt.Sprintf("n%03d", i)})
		}
	}
	return out
}

// closestOf returns the entry numerically closest to key among the nodes.
func closestOf(nodes []*Node, key ids.ID) ids.ID {
	best := nodes[0].ID()
	for _, n := range nodes[1:] {
		if n.ID().CloserToThan(key, best) {
			best = n.ID()
		}
	}
	return best
}

func TestBootstrapRoutingConvergesToNumericallyClosest(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(100, "alpha", "beta"), Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(map[ids.ID]ids.ID) // key -> delivering node
	hops := make(map[ids.ID]int)
	app := &recordApp{onDeliver: func(n *Node, m *Message) {
		delivered[m.Key] = n.ID()
		hops[m.Key] = m.Hops
	}}
	for _, n := range nodes {
		n.Register("test", app)
	}
	r := rand.New(rand.NewSource(7))
	var keys []ids.ID
	for i := 0; i < 300; i++ {
		var key ids.ID
		r.Read(key[:])
		keys = append(keys, key)
		src := nodes[r.Intn(len(nodes))]
		if err := src.RouteScoped("test", GlobalScope, key, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	bound := ids.ExpectedHops(len(nodes)) + 2
	for _, key := range keys {
		got, ok := delivered[key]
		if !ok {
			t.Fatalf("key %v never delivered", key.Short())
		}
		if want := closestOf(nodes, key); got != want {
			t.Errorf("key %v delivered at %v, want %v", key.Short(), got.Short(), want.Short())
		}
		if hops[key] > bound {
			t.Errorf("key %v took %d hops, bound %d", key.Short(), hops[key], bound)
		}
	}
}

func TestScopedRoutingStaysInSite(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(60, "alpha", "beta", "gamma"), Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	siteOf := make(map[ids.ID]string, len(nodes))
	var alphaNodes []*Node
	for _, n := range nodes {
		siteOf[n.ID()] = n.Site()
		if n.Site() == "alpha" {
			alphaNodes = append(alphaNodes, n)
		}
	}
	var traces [][]ids.ID
	var deliveredAt []ids.ID
	var keys []ids.ID
	app := &recordApp{onDeliver: func(n *Node, m *Message) {
		traces = append(traces, m.Trace)
		deliveredAt = append(deliveredAt, n.ID())
		keys = append(keys, m.Key)
	}}
	for _, n := range nodes {
		n.Register("test", app)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		var key ids.ID
		r.Read(key[:])
		src := alphaNodes[r.Intn(len(alphaNodes))]
		if err := src.RouteScoped("test", "alpha", key, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if len(deliveredAt) != 200 {
		t.Fatalf("delivered %d, want 200", len(deliveredAt))
	}
	for i, tr := range traces {
		for _, hop := range tr {
			if siteOf[hop] != "alpha" {
				t.Fatalf("scoped message %d crossed into site %s", i, siteOf[hop])
			}
		}
		if want := closestOf(alphaNodes, keys[i]); deliveredAt[i] != want {
			t.Errorf("scoped key %v delivered at %v, want in-site closest %v",
				keys[i].Short(), deliveredAt[i].Short(), want.Short())
		}
	}
}

func TestScopedRouteFromWrongSiteRejected(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(3, "alpha", "beta"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var beta *Node
	for _, n := range nodes {
		if n.Site() == "beta" {
			beta = n
			break
		}
	}
	if err := beta.RouteScoped("test", "alpha", ids.HashOf("k"), nil, false); err == nil {
		t.Fatal("cross-site scoped route initiation should fail")
	}
}

func TestJoinProtocolBuildsRoutableOverlay(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	addrs := siteAddrs(40, "alpha")
	first, err := NewNode(net, addrs[0], Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	first.BootstrapAlone()
	nodes := []*Node{first}
	for _, a := range addrs[1:] {
		n, err := NewNode(net, a, Config{LeafHalf: 4})
		if err != nil {
			t.Fatal(err)
		}
		joined := false
		seed := nodes[len(nodes)/2].Addr()
		if err := n.JoinGlobal(seed, func() { joined = true }); err != nil {
			t.Fatal(err)
		}
		if err := n.JoinSite(seed, nil); err != nil {
			t.Fatal(err)
		}
		net.Run()
		if !joined {
			t.Fatalf("node %v did not complete join", a)
		}
		nodes = append(nodes, n)
	}
	// After all joins quiesce, routing must converge to the numerically
	// closest node.
	delivered := make(map[ids.ID]ids.ID)
	app := &recordApp{onDeliver: func(n *Node, m *Message) { delivered[m.Key] = n.ID() }}
	for _, n := range nodes {
		n.Register("test", app)
	}
	r := rand.New(rand.NewSource(5))
	var keys []ids.ID
	for i := 0; i < 100; i++ {
		var key ids.ID
		r.Read(key[:])
		keys = append(keys, key)
		nodes[r.Intn(len(nodes))].RouteScoped("test", GlobalScope, key, nil, false)
	}
	net.Run()
	for _, key := range keys {
		if got, want := delivered[key], closestOf(nodes, key); got != want {
			t.Errorf("post-join: key %v delivered at %v, want %v", key.Short(), got.Short(), want.Short())
		}
	}
}

func TestRoutingSurvivesCrashes(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(80, "alpha"), Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(map[ids.ID]ids.ID)
	app := &recordApp{onDeliver: func(n *Node, m *Message) { delivered[m.Key] = n.ID() }}
	for _, n := range nodes {
		n.Register("test", app)
	}
	// Crash a quarter of the overlay.
	r := rand.New(rand.NewSource(13))
	r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	dead := nodes[:20]
	live := nodes[20:]
	for _, n := range dead {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var keys []ids.ID
	for i := 0; i < 150; i++ {
		var key ids.ID
		r.Read(key[:])
		keys = append(keys, key)
		live[r.Intn(len(live))].RouteScoped("test", GlobalScope, key, nil, false)
	}
	net.Run()
	for _, key := range keys {
		got, ok := delivered[key]
		if !ok {
			t.Errorf("key %v lost after crashes", key.Short())
			continue
		}
		// Must land on a live node. Repair happens lazily (on send failure),
		// so we only require the destination to be live and near the key:
		// within the few closest live nodes.
		if got != closestOf(live, key) {
			// Accept any live node whose distance ranks among the closest 4,
			// since lazily-repaired leaf sets may be slightly stale.
			rank := 0
			gd := got.RingDistance(key)
			for _, n := range live {
				if n.ID().RingDistance(key).Less(gd) {
					rank++
				}
			}
			if rank >= 4 {
				t.Errorf("key %v delivered at rank-%d live node", key.Short(), rank)
			}
		}
	}
}

func TestProbeDetectsFailure(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	cfg := Config{LeafHalf: 4, ProbeInterval: 100 * time.Millisecond, ProbeTimeout: 50 * time.Millisecond}
	nodes, err := Bootstrap(net, siteAddrs(10, "alpha"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failures []Entry
	nodes[0].OnFailure(func(e Entry) { failures = append(failures, e) })
	victim := nodes[1]
	// Make sure node 0 knows the victim.
	nodes[0].learn(victim.Self())
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	net.RunFor(5 * time.Second)
	found := false
	for _, e := range failures {
		if e.ID == victim.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("probing never detected the crashed neighbor")
	}
	if nodes[0].Leaf(GlobalScope).Contains(victim.ID()) {
		t.Error("crashed node still in leaf set after detection")
	}
}

func TestDuplicateAppRegistrationPanics(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(0))
	n, err := NewNode(net, transport.Addr{Site: "s", Host: "a"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n.Register("x", &recordApp{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	n.Register("x", &recordApp{})
}

func TestTraceRecordsEveryHop(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(64, "alpha"), Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	var trace []ids.ID
	var hops int
	app := &recordApp{onDeliver: func(n *Node, m *Message) { trace = m.Trace; hops = m.Hops }}
	for _, n := range nodes {
		n.Register("test", app)
	}
	key := ids.HashOf("trace-key")
	nodes[0].RouteScoped("test", GlobalScope, key, nil, true)
	net.Run()
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	if trace[0] != nodes[0].ID() {
		t.Error("trace should start at the origin")
	}
	if len(trace) != hops+1 {
		t.Errorf("trace length %d inconsistent with hops %d", len(trace), hops)
	}
}

// delayApp intercepts routed messages at the first hop and re-injects
// them later via Continue — the pattern applications use to implement
// store-and-forward behavior on top of routing.
type delayApp struct {
	recorder  *recordApp
	held      []*Message
	intercept bool
}

func (a *delayApp) Deliver(n *Node, m *Message) { a.recorder.Deliver(n, m) }
func (a *delayApp) Forward(n *Node, m *Message, next Entry) bool {
	if a.intercept {
		a.held = append(a.held, m)
		return false
	}
	return true
}
func (a *delayApp) Direct(*Node, Entry, any) {}

func TestContinueReinjectsHeldMessages(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(40, "alpha"), Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(map[ids.ID]ids.ID)
	rec := &recordApp{onDeliver: func(n *Node, m *Message) { delivered[m.Key] = n.ID() }}
	apps := make(map[ids.ID]*delayApp, len(nodes))
	for _, n := range nodes {
		app := &delayApp{recorder: rec, intercept: true}
		apps[n.ID()] = app
		n.Register("delay", app)
	}
	key := ids.HashOf("held-key")
	src := nodes[7]
	if err := src.RouteScoped("delay", GlobalScope, key, nil, false); err != nil {
		t.Fatal(err)
	}
	net.Run()
	srcApp := apps[src.ID()]
	if len(delivered) != 0 && delivered[key] != src.ID() {
		t.Fatalf("message escaped the interceptor: %v", delivered)
	}
	if len(srcApp.held) != 1 && delivered[key] == (ids.ID{}) {
		// The source may itself be the destination; only fail if neither
		// held nor delivered.
		t.Fatalf("held = %d, delivered = %v", len(srcApp.held), delivered)
	}
	// Release: stop intercepting everywhere and re-inject.
	for _, app := range apps {
		app.intercept = false
	}
	for _, n := range nodes {
		for _, m := range apps[n.ID()].held {
			n.Continue(m)
		}
	}
	net.Run()
	want := closestOf(nodes, key)
	if delivered[key] != want {
		t.Fatalf("after Continue: delivered at %v, want %v", delivered[key].Short(), want.Short())
	}
}

// A failure tombstone must suppress third-party gossip about a dead peer,
// but a first-person announce (the peer itself re-joining after a restart)
// must clear it immediately — otherwise survivors ignore the restarted
// peer for the whole failedTTL and the overlay stays split.
func TestAnnounceClearsFailureTombstone(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(8, "alpha"), Config{LeafHalf: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := nodes[0], nodes[1]
	a.NotePeerFailure(b.Self())
	if a.Leaf(GlobalScope).Contains(b.ID()) {
		t.Fatal("failed peer still in leaf set")
	}
	// Third-party gossip while tombstoned: still ignored.
	a.learn(b.Self())
	if a.Leaf(GlobalScope).Contains(b.ID()) {
		t.Fatal("tombstoned peer re-learned from gossip")
	}
	// First-person announce: tombstone cleared, peer re-learned.
	a.handleAnnounce(announce{Scope: GlobalScope, Who: b.Self()})
	if !a.Leaf(GlobalScope).Contains(b.ID()) {
		t.Fatal("announce from restarted peer did not clear the tombstone")
	}
}
