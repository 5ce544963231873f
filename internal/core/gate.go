package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rbay/internal/metrics"
	"rbay/internal/transport"
)

// The output gate (DESIGN.md "Output gate"): a node's in-memory state may
// run ahead of its disk, but nothing it says may. Appending a record only
// queues it in the store, so the event context never waits on the device;
// what waits is the node's outputs — transport sends, ingest acks, query
// results and admin replies — which are held, in order, until a Sync that
// covers every record the node appended before them has returned. The
// Sync runs on a flusher goroutine that exists only while records are
// waiting, so consecutive records share one fsync.
//
// Under simnet the same code runs single-threaded: the federation builds
// its nodes inline, the Sync happens on the simulation thread right after
// the record, and the gate is never closed.

// ErrStoreFailed wraps the error that stopped the node: a write or fsync
// of its WAL failed, so nothing more is acknowledged.
var ErrStoreFailed = errors.New("core: durable store failed")

// heldOutput is one output waiting for records 1..need to be durable.
type heldOutput struct {
	need uint64
	fn   func(error)
}

// recStamp is when a record that closed the gate was appended.
type recStamp struct {
	rec uint64
	at  time.Time
}

type gate struct {
	st      Store
	inline  bool // Sync on the event context (simnet)
	ep      transport.Endpoint
	metrics *metrics.Registry

	// Event-context state: recs counts the records this node appended,
	// need is the count that must be durable before outputs may leave, and
	// covered the count a returned Sync is known to cover.
	recs, need, covered uint64
	held                []heldOutput
	stamps              []recStamp

	// Hand-off to the flusher: want is the record count the next Sync must
	// cover; running says a flusher goroutine exists.
	mu      sync.Mutex
	want    uint64
	running bool
	// bg counts the flusher and Durably goroutines in flight.
	bg sync.WaitGroup

	failOnce sync.Once
	failErr  error // set once, before failed is closed
	failed   chan struct{}
}

func newGate(st Store, reg *metrics.Registry, inline bool) *gate {
	g := &gate{st: st, inline: inline, metrics: reg, failed: make(chan struct{})}
	if st != nil && !inline {
		reg.Declare("rbay_durable_wait_seconds")
		reg.Add("rbay_store_failed", 0)
	}
	return g
}

// gatedNet hands pastry an endpoint whose Send passes through the gate.
type gatedNet struct {
	transport.Network
	g *gate
}

func (gn gatedNet) NewEndpoint(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	ep, err := gn.Network.NewEndpoint(addr, h)
	if err != nil {
		return nil, err
	}
	gn.g.ep = ep
	return &gatedEndpoint{Endpoint: ep, g: gn.g}, nil
}

type gatedEndpoint struct {
	transport.Endpoint
	g *gate
}

// Send transmits msg now when the gate is open and otherwise once it
// opens. A held send reports no error: like a message lost in flight, a
// failure at release time is left to the transport's peer-down detection.
func (e *gatedEndpoint) Send(to transport.Addr, msg any) error {
	if e.g.open() {
		return e.Endpoint.Send(to, msg)
	}
	if e.g.err() != nil {
		// The node has stopped: its endpoint counts as closed.
		return transport.ErrClosed
	}
	e.g.hold(func(err error) {
		if err == nil {
			_ = e.Endpoint.Send(to, msg)
		}
	})
	return nil
}

// err returns the latched store failure, if any. Safe from any goroutine.
func (g *gate) err() error {
	select {
	case <-g.failed:
		return g.failErr
	default:
		return nil
	}
}

// fail latches the first store failure. Safe from any goroutine.
func (g *gate) fail(err error) {
	g.failOnce.Do(func() {
		g.failErr = fmt.Errorf("%w: %w", ErrStoreFailed, err)
		close(g.failed)
		g.metrics.Inc("rbay_store_failed")
	})
}

func (g *gate) open() bool { return g.covered >= g.need && g.err() == nil }

func (g *gate) hold(fn func(error)) {
	g.held = append(g.held, heldOutput{need: g.need, fn: fn})
	g.metrics.Inc("rbay_gate_held_total")
}

// afterDurable runs fn once every record appended so far is durable — at
// once when the gate is open — or with the store's error.
func (g *gate) afterDurable(fn func(error)) {
	switch {
	case g.open():
		fn(nil)
	case g.err() != nil:
		fn(g.err())
	default:
		g.hold(fn)
	}
}

// recorded runs on the event context after every record the node appends:
// when the store's policy wants that record synced, it closes the gate
// behind it and asks for the Sync.
func (g *gate) recorded() {
	g.recs++
	if !g.st.SyncDue() {
		return
	}
	if !g.inline {
		g.need = g.recs
		g.stamps = append(g.stamps, recStamp{rec: g.recs, at: g.ep.Now()})
	}
	g.flush()
}

// flush gets every record appended so far synced: in place under simnet,
// otherwise by the flusher, which it starts unless one is running.
func (g *gate) flush() {
	if g.inline {
		if err := g.st.Sync(); err != nil {
			g.fail(err)
		}
		return
	}
	g.mu.Lock()
	g.want = g.recs
	start := !g.running
	g.running = true
	g.mu.Unlock()
	if start {
		g.bg.Add(1)
		go g.flushLoop()
	}
}

// flushLoop is the flusher goroutine: it syncs until the store has caught
// up with the node, posting each result to the event context, then exits.
// It never sleeps and never arms a timer.
func (g *gate) flushLoop() {
	defer g.bg.Done()
	for {
		g.mu.Lock()
		target := g.want
		g.mu.Unlock()
		err := g.st.Sync()
		g.ep.After(0, func() { g.synced(target, err) })
		g.mu.Lock()
		if err != nil || g.want == target {
			g.running = false
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
	}
}

// synced runs on the event context once a Sync covering the node's first
// target records has returned: it releases, in order, every held output
// those records were blocking. A failed Sync fails them all instead, and
// the gate stays shut.
func (g *gate) synced(target uint64, err error) {
	if err != nil {
		g.fail(err)
		held := g.held
		g.held, g.stamps = nil, nil
		for _, h := range held {
			h.fn(g.err())
		}
		return
	}
	if target > g.covered {
		g.covered = target
	}
	now := g.ep.Now()
	i := 0
	for ; i < len(g.stamps) && g.stamps[i].rec <= g.covered; i++ {
		g.metrics.Observe("rbay_durable_wait_seconds", now.Sub(g.stamps[i].at))
	}
	g.stamps = g.stamps[:copy(g.stamps, g.stamps[i:])]
	// One at a time: a released output may append a record and hold new
	// outputs behind it.
	for len(g.held) > 0 && g.held[0].need <= g.covered {
		h := g.held[0]
		g.held = g.held[1:]
		h.fn(nil)
	}
}

// AfterDurable runs fn on the event context once every record the node
// has appended so far is durable: immediately when nothing is waiting,
// otherwise when the covering Sync returns. fn receives the store's error
// if that Sync failed. In-process acknowledgements (ingest acks, query
// results, the gateway's admin replies) go through it; transport sends
// pass the same gate inside the node's endpoint. Event context only.
func (n *Node) AfterDurable(fn func(error)) { n.g.afterDurable(fn) }

// Durably runs write — a store call that blocks until its record is
// durable, such as ops.Store.RecordOp — off the event context, then runs
// then on it with the store's error if the write did not reach the disk.
// The caller's store must be the node's own WAL (rbayd, the benchmark and
// the chaos harness all share one), because the node's store is where the
// error is read from. Under simnet both run in place. Event context only.
func (n *Node) Durably(write func(), then func(error)) {
	if n.g.inline {
		write()
		then(n.StoreErr())
		return
	}
	n.g.bg.Add(1)
	go func() {
		defer n.g.bg.Done()
		write()
		err := n.StoreErr()
		n.p.After(0, func() { then(err) })
	}()
}

// StoreErr reports whether the node has stopped because its durable store
// failed, asking the store first so a failure seen by another writer of
// the same WAL stops the node too. Safe from any goroutine.
func (n *Node) StoreErr() error {
	if n.st != nil {
		if err := n.st.Err(); err != nil {
			n.g.fail(err)
		}
	}
	return n.g.err()
}

// StoreFailed is closed when the node's durable store has failed.
func (n *Node) StoreFailed() <-chan struct{} { return n.g.failed }
