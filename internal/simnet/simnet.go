// Package simnet is a deterministic discrete-event network simulator with a
// virtual clock. It stands in for the paper's 8-site Amazon EC2 testbed:
// message delays are drawn from a pluggable latency model (internal/sites
// provides the paper's Table II RTT matrix), and thousands of simulated
// RBAY nodes run in a single process in virtual time.
//
// The simulator is single-threaded: Run dispatches queued events (message
// deliveries and timer firings) in timestamp order, executing handlers
// inline. Handlers may send messages and schedule timers, which enqueue
// further events. Given the same seed and the same program, a simulation is
// bit-for-bit reproducible.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"rbay/internal/transport"
)

// Epoch is the virtual time at which every simulation starts.
var Epoch = time.Date(2017, time.June, 5, 0, 0, 0, 0, time.UTC)

type eventKind uint8

const (
	eventDeliver eventKind = iota + 1
	eventTimer
)

type event struct {
	at   time.Time
	seq  uint64 // FIFO tiebreak for equal timestamps
	kind eventKind

	// eventDeliver
	from, to transport.Addr
	msg      any

	// eventTimer
	ep *Endpoint
	fn func()
	id uint64 // timer id, 0 for deliveries
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Stats tracks aggregate network activity, used by the overhead and
// load-balance experiments and by the chaos harness's campaign counters.
type Stats struct {
	MessagesSent       uint64
	MessagesDelivered  uint64
	MessagesDropped    uint64
	MessagesDuplicated uint64
	MessagesJittered   uint64
	MessagesReordered  uint64
	TimersFired        uint64
	EventsProcessed    uint64
}

// Rule is one composable fault-injection rule. A message matching several
// rules accumulates their effects; probabilistic decisions are drawn from
// the network's seeded fault RNG, so a simulation replays identically from
// the same seed.
type Rule struct {
	// Match limits the rule to matching (from, to) pairs; nil matches every
	// message.
	Match func(from, to transport.Addr) bool
	// Drop is the probability in [0,1] that a matching message is silently
	// lost in flight (the sender sees no error).
	Drop float64
	// Dup is the probability that a matching message is delivered twice.
	Dup float64
	// Jitter adds uniform extra latency in [0, Jitter] to every matching
	// message.
	Jitter time.Duration
	// Reorder is the probability that a matching message is held back by an
	// extra delay uniform in (0, ReorderWindow], letting messages sent
	// later overtake it. Reordering is therefore bounded: a delayed message
	// arrives at most ReorderWindow after its undisturbed delivery time.
	Reorder       float64
	ReorderWindow time.Duration
}

func (r Rule) matches(from, to transport.Addr) bool {
	return r.Match == nil || r.Match(from, to)
}

// RuleID names an installed rule so it can be removed later.
type RuleID uint64

type installedRule struct {
	id RuleID
	r  Rule
}

// MatchSites returns a Rule matcher selecting traffic between two sites,
// in both directions.
func MatchSites(a, b string) func(from, to transport.Addr) bool {
	return func(from, to transport.Addr) bool {
		return (from.Site == a && to.Site == b) || (from.Site == b && to.Site == a)
	}
}

// MatchSite returns a Rule matcher selecting all traffic entering or
// leaving one site, excluding site-internal messages.
func MatchSite(site string) func(from, to transport.Addr) bool {
	return func(from, to transport.Addr) bool {
		return (from.Site == site) != (to.Site == site)
	}
}

// Network is a simulated network. It is not safe for concurrent use; all
// interaction (creating endpoints, sending, running) must happen from a
// single goroutine, conventionally the one calling Run.
type Network struct {
	now       time.Time
	seq       uint64
	timerID   uint64
	queue     eventHeap
	endpoints map[transport.Addr]*Endpoint
	latency   transport.LatencyModel
	stats     Stats

	// perDst counts deliveries per endpoint (experiments use this to find
	// hot spots).
	perDst map[transport.Addr]uint64

	// drop, if non-nil, is consulted for every send; returning true drops
	// the message silently (failure injection: lossy links, partitions).
	drop func(from, to transport.Addr) bool

	// rules is the ordered fault-rule list; faultRNG drives its
	// probabilistic decisions.
	rules      []installedRule
	nextRule   RuleID
	faultRNG   *rand.Rand
	partitions map[[2]string]RuleID

	// transcode, if non-nil, is applied to every payload at send time.
	// The chaos harness installs a wire-codec round-trip here so that
	// simulated runs exercise the same serialization the TCP transport
	// uses, catching unregistered message types and lossy codecs that an
	// in-memory simulation would otherwise hide.
	transcode func(msg any) (any, error)

	// free recycles event structs between dispatches. The simulator is
	// single-threaded by contract, and an event is dead as soon as its
	// handler returns, so Step can return it to this stack instead of
	// leaving one ~140-byte allocation per send/timer for the GC.
	free []*event

	// running guards against reentrant Run calls from handlers.
	running bool
}

// New creates a network whose message delays come from latency.
func New(latency transport.LatencyModel) *Network {
	return &Network{
		now:       Epoch,
		endpoints: make(map[transport.Addr]*Endpoint),
		perDst:    make(map[transport.Addr]uint64),
		latency:   latency,
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats { return n.stats }

// DeliveredTo returns how many messages have been delivered to addr.
func (n *Network) DeliveredTo(addr transport.Addr) uint64 { return n.perDst[addr] }

// PerEndpointDelivered returns a copy of the per-endpoint delivery counts.
func (n *Network) PerEndpointDelivered() map[transport.Addr]uint64 {
	out := make(map[transport.Addr]uint64, len(n.perDst))
	for k, v := range n.perDst {
		out[k] = v
	}
	return out
}

// SetDropFunc installs a failure-injection predicate consulted on every
// send, in addition to any installed fault rules. Pass nil to clear.
func (n *Network) SetDropFunc(f func(from, to transport.Addr) bool) { n.drop = f }

// SeedFaults seeds the RNG behind probabilistic fault rules. Calling it
// resets the fault stream; the default seed is 1.
func (n *Network) SeedFaults(seed int64) { n.faultRNG = rand.New(rand.NewSource(seed)) }

func (n *Network) faultRand() *rand.Rand {
	if n.faultRNG == nil {
		n.SeedFaults(1)
	}
	return n.faultRNG
}

// AddRule installs a fault rule, returning an identifier for later removal.
// Rules are evaluated in installation order on every send.
func (n *Network) AddRule(r Rule) RuleID {
	n.nextRule++
	id := n.nextRule
	n.rules = append(n.rules, installedRule{id: id, r: r})
	return id
}

// RemoveRule uninstalls a rule, reporting whether it was present.
func (n *Network) RemoveRule(id RuleID) bool {
	for i, ir := range n.rules {
		if ir.id == id {
			n.rules = append(n.rules[:i], n.rules[i+1:]...)
			for pair, pid := range n.partitions {
				if pid == id {
					delete(n.partitions, pair)
				}
			}
			return true
		}
	}
	return false
}

// RuleCount returns the number of installed fault rules (partitions
// included).
func (n *Network) RuleCount() int { return len(n.rules) }

func sitePair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// PartitionSites drops all traffic between the two given sites (both
// directions) until HealSites or HealAll removes the partition. Repeated
// calls for the same pair are idempotent: exactly one rule exists per
// partitioned pair, so partition/heal cycles do not accumulate state.
func (n *Network) PartitionSites(a, b string) {
	pair := sitePair(a, b)
	if n.partitions == nil {
		n.partitions = make(map[[2]string]RuleID)
	}
	if _, up := n.partitions[pair]; up {
		return
	}
	n.partitions[pair] = n.AddRule(Rule{Match: MatchSites(a, b), Drop: 1})
}

// HealSites removes the partition between two sites, reporting whether one
// existed.
func (n *Network) HealSites(a, b string) bool {
	id, ok := n.partitions[sitePair(a, b)]
	if !ok {
		return false
	}
	return n.RemoveRule(id)
}

// HealAllPartitions removes every site partition installed with
// PartitionSites. Other fault rules are untouched.
func (n *Network) HealAllPartitions() {
	for _, id := range n.partitions {
		for i, ir := range n.rules {
			if ir.id == id {
				n.rules = append(n.rules[:i], n.rules[i+1:]...)
				break
			}
		}
	}
	n.partitions = nil
}

// Partitioned reports whether traffic between the two sites is currently
// partitioned.
func (n *Network) Partitioned(a, b string) bool {
	_, ok := n.partitions[sitePair(a, b)]
	return ok
}

// NewEndpoint implements transport.Network.
func (n *Network) NewEndpoint(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.NewSimEndpoint(addr, h)
	if err != nil {
		return nil, err
	}
	return ep, nil
}

// NewSimEndpoint is NewEndpoint returning the concrete type.
func (n *Network) NewSimEndpoint(addr transport.Addr, h transport.Handler) (*Endpoint, error) {
	if addr.IsZero() {
		return nil, fmt.Errorf("simnet: zero address")
	}
	if old, ok := n.endpoints[addr]; ok && !old.closed {
		return nil, fmt.Errorf("simnet: address %v already attached", addr)
	}
	ep := &Endpoint{net: n, addr: addr, handler: h}
	n.endpoints[addr] = ep
	return ep, nil
}

// SetTranscode installs a payload transform applied on every send before
// delivery is scheduled; a transform error fails the send. Pass nil to
// clear. Transforms let simulations round-trip payloads through the real
// wire codec (see chaos harness), so codec bugs surface under simnet too.
func (n *Network) SetTranscode(f func(msg any) (any, error)) { n.transcode = f }

// newEvent takes an event from the freelist, or allocates one.
func (n *Network) newEvent() *event {
	if len(n.free) == 0 {
		return new(event)
	}
	e := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	return e
}

// recycle returns a dispatched event to the freelist, dropping references
// so recycled events don't pin payloads or closures.
func (n *Network) recycle(e *event) {
	*e = event{}
	n.free = append(n.free, e)
}

func (n *Network) push(e *event) {
	n.seq++
	e.seq = n.seq
	heap.Push(&n.queue, e)
}

// send enqueues a delivery event, applying latency and drop rules.
func (n *Network) send(from, to transport.Addr, msg any) error {
	n.stats.MessagesSent++
	if n.transcode != nil {
		decoded, err := n.transcode(msg)
		if err != nil {
			n.stats.MessagesDropped++
			return fmt.Errorf("simnet: transcode %T: %w", msg, err)
		}
		msg = decoded
	}
	dst, ok := n.endpoints[to]
	if !ok || dst.closed {
		n.stats.MessagesDropped++
		return transport.ErrUnreachable
	}
	if n.drop != nil && n.drop(from, to) {
		// Dropped in flight: the sender cannot tell, so no error.
		n.stats.MessagesDropped++
		return nil
	}
	copies := 1
	var extra time.Duration
	for _, ir := range n.rules {
		r := ir.r
		if !r.matches(from, to) {
			continue
		}
		if r.Drop > 0 && (r.Drop >= 1 || n.faultRand().Float64() < r.Drop) {
			n.stats.MessagesDropped++
			return nil
		}
		if r.Dup > 0 && (r.Dup >= 1 || n.faultRand().Float64() < r.Dup) {
			copies++
			n.stats.MessagesDuplicated++
		}
		if r.Jitter > 0 {
			if d := time.Duration(n.faultRand().Int63n(int64(r.Jitter) + 1)); d > 0 {
				extra += d
				n.stats.MessagesJittered++
			}
		}
		if r.Reorder > 0 && r.ReorderWindow > 0 && (r.Reorder >= 1 || n.faultRand().Float64() < r.Reorder) {
			extra += time.Duration(n.faultRand().Int63n(int64(r.ReorderWindow))) + 1
			n.stats.MessagesReordered++
		}
	}
	at := n.now.Add(n.latency.Delay(from, to) + extra)
	for c := 0; c < copies; c++ {
		e := n.newEvent()
		e.at = at
		e.kind = eventDeliver
		e.from = from
		e.to = to
		e.msg = msg
		n.push(e)
	}
	return nil
}

// Pending reports the number of queued events.
func (n *Network) Pending() int { return len(n.queue) }

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It reports whether an event was processed.
func (n *Network) Step() bool {
	if len(n.queue) == 0 {
		return false
	}
	e := heap.Pop(&n.queue).(*event)
	if e.at.After(n.now) {
		n.now = e.at
	}
	n.stats.EventsProcessed++
	switch e.kind {
	case eventDeliver:
		dst, ok := n.endpoints[e.to]
		if !ok || dst.closed {
			n.stats.MessagesDropped++
			break
		}
		n.stats.MessagesDelivered++
		n.perDst[e.to]++
		dst.handler(e.from, e.msg)
	case eventTimer:
		if e.ep.closed || e.ep.cancelled[e.id] {
			delete(e.ep.cancelled, e.id)
			break
		}
		n.stats.TimersFired++
		e.fn()
	}
	n.recycle(e)
	return true
}

// Run dispatches events until the queue is empty. Periodic timers that
// re-arm themselves forever would make Run spin; use RunUntil or RunFor for
// simulations with recurring maintenance timers.
func (n *Network) Run() {
	n.enterRun()
	defer n.leaveRun()
	for n.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline.
func (n *Network) RunUntil(deadline time.Time) {
	n.enterRun()
	defer n.leaveRun()
	for len(n.queue) > 0 && !n.queue[0].at.After(deadline) {
		n.Step()
	}
	if n.now.Before(deadline) {
		n.now = deadline
	}
}

// RunFor advances the simulation by d.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.now.Add(d)) }

func (n *Network) enterRun() {
	if n.running {
		panic("simnet: reentrant Run from inside a handler")
	}
	n.running = true
}

func (n *Network) leaveRun() { n.running = false }

// Endpoint is a simulated network attachment.
type Endpoint struct {
	net       *Network
	addr      transport.Addr
	handler   transport.Handler
	closed    bool
	nextTimer uint64
	cancelled map[uint64]bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Addr implements transport.Endpoint.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Now implements transport.Endpoint.
func (e *Endpoint) Now() time.Time { return e.net.now }

// Send implements transport.Endpoint.
func (e *Endpoint) Send(to transport.Addr, msg any) error {
	if e.closed {
		return transport.ErrClosed
	}
	return e.net.send(e.addr, to, msg)
}

// After implements transport.Endpoint.
func (e *Endpoint) After(d time.Duration, fn func()) transport.CancelFunc {
	if e.closed {
		return func() bool { return false }
	}
	if d < 0 {
		d = 0
	}
	e.net.timerID++
	id := e.net.timerID
	ev := e.net.newEvent()
	ev.at = e.net.now.Add(d)
	ev.kind = eventTimer
	ev.ep = e
	ev.fn = fn
	ev.id = id
	e.net.push(ev)
	return func() bool {
		if e.cancelled == nil {
			e.cancelled = make(map[uint64]bool)
		}
		if e.cancelled[id] {
			return false
		}
		e.cancelled[id] = true
		return true
	}
}

// Go runs fn in place: what a node would run on a goroutine, such as its
// fsyncs, runs on the simulation's one thread at no virtual time.
func (e *Endpoint) Go(fn func()) { fn() }

// Close implements transport.Endpoint. Closing an endpoint makes it
// unreachable: in-flight messages to it are dropped at delivery time and
// its pending timers never fire — the simulated equivalent of a crash.
func (e *Endpoint) Close() error {
	if e.closed {
		return transport.ErrClosed
	}
	e.closed = true
	delete(e.net.endpoints, e.addr)
	return nil
}
