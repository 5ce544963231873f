package pastry

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"rbay/internal/ids"
	"rbay/internal/metrics"
	"rbay/internal/transport"
)

// Application receives routed and direct messages on a node. Higher layers
// (Scribe, the RBAY core) implement it and register under a name.
type Application interface {
	// Deliver is invoked on the node numerically closest to the message key
	// within its scope.
	Deliver(n *Node, m *Message)

	// Forward is invoked on every intermediate hop before the message is
	// sent to next. The application may mutate the message; returning false
	// consumes it (Scribe join and anycast interception work this way).
	Forward(n *Node, m *Message, next Entry) bool

	// Direct is invoked for point-to-point application messages.
	Direct(n *Node, from Entry, payload any)
}

// Config carries node tuning knobs. The zero value is usable: defaults are
// applied by NewNode.
type Config struct {
	// LeafHalf is the per-side leaf-set capacity (Pastry's l/2).
	// Default 8.
	LeafHalf int
	// ProbeInterval enables periodic liveness probing of leaf-set
	// neighbors when positive.
	ProbeInterval time.Duration
	// ProbeTimeout is how long to wait for a probe ack before declaring
	// the neighbor failed. Default 3s.
	ProbeTimeout time.Duration
	// Metrics, when non-nil, receives routing observability samples
	// (pastry_route_hops per delivered message, pastry_delivered_total,
	// pastry_forwarded_total, pastry_reply_mismatch_total). Nil disables
	// recording at zero cost.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.LeafHalf <= 0 {
		c.LeafHalf = 8
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 3 * time.Second
	}
	return c
}

// Stats counts per-node routing activity.
type Stats struct {
	// Forwarded counts routed messages this node passed toward another hop
	// (it was neither origin-delivery nor final destination).
	Forwarded uint64
	// Delivered counts routed messages delivered at this node.
	Delivered uint64
	// Originated counts routed messages first injected at this node.
	Originated uint64
}

// state is one routing structure: the global one or a site-scoped one.
type state struct {
	scope  string
	table  *RoutingTable
	leaf   *LeafSet
	joined bool
}

// pendingCall is one awaited reply: see Await.
type pendingCall struct {
	want   reflect.Type
	cb     func(reply any, err error)
	cancel transport.CancelFunc
}

// ErrBadScope is returned when initiating a scoped operation from a node
// outside that scope.
var ErrBadScope = errors.New("pastry: scope does not match node's site")

// ErrTimeout is reported to Await callbacks whose reply did not arrive in
// time.
var ErrTimeout = errors.New("pastry: request timed out")

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("pastry: node closed")

// Node is one Pastry overlay member. A Node is confined to its endpoint's
// event context (the simulation goroutine under simnet, the per-endpoint
// dispatch goroutine under tcpnet); it performs no internal locking.
type Node struct {
	cfg    Config
	ep     transport.Endpoint
	self   Entry
	states map[string]*state
	apps   map[string]Application
	stats  Stats
	// closed is the one field touched off the event context: Close is the
	// crash path and may come from any goroutine while handlers run.
	closed atomic.Bool

	// pending is the node's one table of awaited replies (Await/Settle):
	// pastry's probes, scribe's anycasts and aggregate queries and the
	// core's site queries, view round trips and op acks all wait here, on
	// IDs minted from nextReq.
	pending map[uint64]*pendingCall
	nextReq uint64

	onFailure []func(Entry)
	onJoined  map[string][]func()

	probeRR int

	// failed holds tombstones for peers recently declared dead, so that
	// repair responses from neighbors that have not yet noticed the death
	// do not resurrect them.
	failed map[ids.ID]time.Time
}

// failedTTL is how long a failure tombstone suppresses re-learning a peer.
const failedTTL = 30 * time.Second

// NewNode attaches a new overlay node at addr. The node participates in the
// global scope and its own site scope once joined (or bootstrapped).
func NewNode(net transport.Network, addr transport.Addr, cfg Config) (*Node, error) {
	n := &Node{
		cfg:      cfg.withDefaults(),
		self:     EntryFor(addr),
		states:   make(map[string]*state, 2),
		apps:     make(map[string]Application),
		pending:  make(map[uint64]*pendingCall),
		onJoined: make(map[string][]func()),
		failed:   make(map[ids.ID]time.Time),
	}
	// Pre-create the routing histogram so first delivery is construction-free.
	n.cfg.Metrics.DeclareInt("pastry_route_hops")
	ep, err := net.NewEndpoint(addr, n.handle)
	if err != nil {
		return nil, fmt.Errorf("pastry: attach %v: %w", addr, err)
	}
	n.ep = ep
	n.stateFor(GlobalScope, true)
	n.stateFor(addr.Site, true)
	if n.cfg.ProbeInterval > 0 {
		n.scheduleProbe()
	}
	return n, nil
}

// ID returns the node's NodeId.
func (n *Node) ID() ids.ID { return n.self.ID }

// Self returns the node's entry.
func (n *Node) Self() Entry { return n.self }

// Addr returns the node's address.
func (n *Node) Addr() transport.Addr { return n.ep.Addr() }

// Site returns the node's site name.
func (n *Node) Site() string { return n.self.Addr.Site }

// Now returns the transport's notion of current time.
func (n *Node) Now() time.Time { return n.ep.Now() }

// After schedules fn on the node's event context.
func (n *Node) After(d time.Duration, fn func()) transport.CancelFunc {
	return n.ep.After(d, fn)
}

// Stats returns a copy of the node's routing counters.
func (n *Node) Stats() Stats { return n.stats }

// Register installs an application under name. Registering twice panics:
// application names are a compile-time namespace.
func (n *Node) Register(name string, app Application) {
	if _, dup := n.apps[name]; dup {
		panic("pastry: duplicate application " + name)
	}
	n.apps[name] = app
}

// OnFailure registers a callback invoked whenever the node learns a peer
// has failed.
func (n *Node) OnFailure(cb func(Entry)) { n.onFailure = append(n.onFailure, cb) }

// Close detaches the node from the network. Unlike the rest of the node
// it is safe from any goroutine, and it never waits on the event context,
// so it cannot hang on an endpoint that has already stopped.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	return n.ep.Close()
}

func (n *Node) stateFor(scope string, create bool) *state {
	st := n.states[scope]
	if st == nil && create {
		st = &state{
			scope: scope,
			table: NewRoutingTable(n.self.ID),
			leaf:  NewLeafSet(n.self.ID, n.cfg.LeafHalf),
		}
		n.states[scope] = st
	}
	return st
}

// Leaf returns the node's leaf set for a scope (nil if the scope is
// unknown). Exposed for tests and experiments.
func (n *Node) Leaf(scope string) *LeafSet {
	if st := n.states[scope]; st != nil {
		return st.leaf
	}
	return nil
}

// Table returns the node's routing table for a scope (nil if unknown).
func (n *Node) Table(scope string) *RoutingTable {
	if st := n.states[scope]; st != nil {
		return st.table
	}
	return nil
}

// Joined reports whether the node completed joining the given scope.
func (n *Node) Joined(scope string) bool {
	st := n.states[scope]
	return st != nil && st.joined
}

// Scopes returns the names of the routing scopes this node participates in
// (the global scope plus its site), sorted.
func (n *Node) Scopes() []string {
	out := make([]string, 0, len(n.states))
	for scope := range n.states {
		out = append(out, scope)
	}
	sort.Strings(out)
	return out
}

// learn inserts a peer into the appropriate routing structures. Peers with
// a fresh failure tombstone are ignored.
func (n *Node) learn(e Entry) {
	if e.IsZero() || e.ID == n.self.ID {
		return
	}
	if t, dead := n.failed[e.ID]; dead {
		if n.ep.Now().Sub(t) < failedTTL {
			return
		}
		delete(n.failed, e.ID)
	}
	if st := n.states[GlobalScope]; st != nil {
		st.leaf.Insert(e)
		st.table.Insert(n.self, e)
	}
	if e.Addr.Site == n.Site() {
		if st := n.states[n.Site()]; st != nil {
			st.leaf.Insert(e)
			st.table.Insert(n.self, e)
		}
	}
}

// forget removes a peer from all routing structures, reporting whether it
// was known anywhere.
func (n *Node) forget(id ids.ID) bool {
	known := false
	for _, st := range n.states {
		if st.leaf.Remove(id) {
			known = true
		}
		if st.table.Remove(id) {
			known = true
		}
	}
	return known
}

// ---------------------------------------------------------------------------
// Routing

// Route injects a message into the overlay from this node toward key within
// the global scope.
func (n *Node) Route(app string, key ids.ID, payload any) error {
	return n.RouteScoped(app, GlobalScope, key, payload, false)
}

// RouteScoped injects a message toward key within scope. Scoped routing may
// only be initiated by a node inside the scope; the message then provably
// never leaves it. recordTrace asks each hop to append its NodeId.
func (n *Node) RouteScoped(app, scope string, key ids.ID, payload any, recordTrace bool) error {
	if n.closed.Load() {
		return ErrClosed
	}
	if scope != GlobalScope && scope != n.Site() {
		return fmt.Errorf("%w: scope %q, site %q", ErrBadScope, scope, n.Site())
	}
	m := &Message{
		App:         app,
		Key:         key,
		Scope:       scope,
		Origin:      n.self,
		RecordTrace: recordTrace,
		Payload:     payload,
	}
	n.stats.Originated++
	n.route(m)
	return nil
}

// Continue re-injects a message received by an application's Forward hook
// (Scribe anycast redirection uses this).
func (n *Node) Continue(m *Message) { n.route(m) }

func (n *Node) route(m *Message) {
	// Bounded retries: each failed send removes the dead next hop from our
	// structures, so the candidate set strictly shrinks.
	for {
		st := n.states[m.Scope]
		if st == nil {
			return
		}
		if m.RecordTrace {
			if len(m.Trace) == 0 || m.Trace[len(m.Trace)-1] != n.self.ID {
				m.Trace = append(m.Trace, n.self.ID)
			}
		}
		next := n.nextHop(st, m.Key)
		if next.IsZero() {
			n.deliver(m)
			return
		}
		if app := n.apps[m.App]; app != nil {
			if !app.Forward(n, m, next) {
				return
			}
		}
		if m.Origin.ID != n.self.ID || m.Hops > 0 {
			n.stats.Forwarded++
			n.cfg.Metrics.Inc("pastry_forwarded_total")
		}
		m.Hops++
		if err := n.ep.Send(next.Addr, m); err != nil {
			m.Hops--
			n.NotePeerFailure(next)
			continue
		}
		return
	}
}

// nextHop computes the Pastry next hop for key in st, or zero if this node
// is the destination.
func (n *Node) nextHop(st *state, key ids.ID) Entry {
	if key == n.self.ID {
		return Entry{}
	}
	if st.leaf.Covers(key) {
		c := st.leaf.Closest(key)
		if c.ID == n.self.ID {
			return Entry{}
		}
		return c
	}
	if e := st.table.NextHop(key); !e.IsZero() {
		return e
	}
	// Rare case: any known node with at least as long a shared prefix that
	// is strictly closer to the key.
	l := n.self.ID.CommonPrefixLen(key)
	best := Entry{}
	consider := func(e Entry) {
		if e.ID.CommonPrefixLen(key) < l {
			return
		}
		if !e.ID.CloserToThan(key, n.self.ID) {
			return
		}
		if best.IsZero() || e.ID.CloserToThan(key, best.ID) {
			best = e
		}
	}
	for _, e := range st.leaf.Members() {
		consider(e)
	}
	for _, e := range st.table.Entries() {
		consider(e)
	}
	if !best.IsZero() {
		return best
	}
	// Greedy fallback: with slightly stale or still-converging state the
	// prefix condition can be unsatisfiable even though a known node is
	// numerically closer. Walking the ring toward the key through leaf
	// sets still converges, at worst costing extra hops.
	for _, e := range st.leaf.Members() {
		if e.ID.CloserToThan(key, n.self.ID) && (best.IsZero() || e.ID.CloserToThan(key, best.ID)) {
			best = e
		}
	}
	return best
}

func (n *Node) deliver(m *Message) {
	n.stats.Delivered++
	n.cfg.Metrics.Inc("pastry_delivered_total")
	n.cfg.Metrics.ObserveInt("pastry_route_hops", m.Hops)
	switch m.App {
	case appJoin:
		n.deliverJoin(m)
	default:
		if app := n.apps[m.App]; app != nil {
			app.Deliver(n, m)
		}
	}
}

// ---------------------------------------------------------------------------
// Direct application messages

// SendApp sends a point-to-point application message.
func (n *Node) SendApp(to transport.Addr, app string, payload any) error {
	if n.closed.Load() {
		return ErrClosed
	}
	err := n.ep.Send(to, directEnvelope{App: app, From: n.self, Payload: payload})
	if err != nil && !errors.Is(err, transport.ErrClosed) {
		n.NotePeerFailure(EntryFor(to))
	}
	return err
}

// ---------------------------------------------------------------------------
// Join protocol

const appJoin = "_pastry.join"

// JoinGlobal joins the federation-wide scope through any existing member.
// done (optional) fires when the node has installed its leaf set.
func (n *Node) JoinGlobal(seed transport.Addr, done func()) error {
	return n.join(GlobalScope, seed, done)
}

// JoinSite joins this node's site scope through an existing same-site
// member.
func (n *Node) JoinSite(seed transport.Addr, done func()) error {
	if seed.Site != n.Site() {
		return fmt.Errorf("%w: site join via %v", ErrBadScope, seed)
	}
	return n.join(n.Site(), seed, done)
}

// BootstrapAlone marks this node as the first member of its scopes; no
// messages are exchanged.
func (n *Node) BootstrapAlone() {
	for _, st := range n.states {
		st.joined = true
	}
}

func (n *Node) join(scope string, seed transport.Addr, done func()) error {
	if n.closed.Load() {
		return ErrClosed
	}
	st := n.stateFor(scope, true)
	if st.joined {
		return fmt.Errorf("pastry: already joined scope %q", scope)
	}
	if done != nil {
		n.onJoined[scope] = append(n.onJoined[scope], done)
	}
	return n.ep.Send(seed, joinStart{Scope: scope, Joiner: n.self})
}

// handleJoinStart runs on the seed: it starts routing the join request.
// The joiner must NOT be learned here: routing the join has to find the
// numerically closest *existing* member (which donates its leaf set);
// learning the joiner first would route the join straight back to it.
func (n *Node) handleJoinStart(js joinStart) {
	m := &Message{
		App:     appJoin,
		Key:     js.Joiner.ID,
		Scope:   js.Scope,
		Origin:  js.Joiner,
		Payload: joinPayload{Joiner: js.Joiner},
	}
	// The seed itself contributes its rows before routing onward.
	n.sendJoinRows(js.Scope, js.Joiner)
	n.route(m)
}

// sendJoinRows ships this node's routing-table rows 0..cpl to the joiner.
func (n *Node) sendJoinRows(scope string, joiner Entry) {
	st := n.states[scope]
	if st == nil {
		return
	}
	cpl := n.self.ID.CommonPrefixLen(joiner.ID)
	rows := []Entry{n.self}
	for l := 0; l <= cpl && l < ids.Digits; l++ {
		rows = append(rows, st.table.Row(l)...)
	}
	// Best effort: the joiner is new, it cannot have failed meaningfully.
	_ = n.ep.Send(joiner.Addr, joinRows{Scope: scope, Rows: rows})
}

// joinForwardHook runs on every node forwarding a join message.
func (n *Node) joinForwardHook(m *Message) {
	jp, ok := m.Payload.(joinPayload)
	if !ok {
		return
	}
	n.sendJoinRows(m.Scope, jp.Joiner)
}

// deliverJoin runs on the node numerically closest to the joiner.
func (n *Node) deliverJoin(m *Message) {
	jp, ok := m.Payload.(joinPayload)
	if !ok {
		return
	}
	st := n.states[m.Scope]
	if st == nil {
		return
	}
	leaves := append(st.leaf.Members(), n.self)
	_ = n.ep.Send(jp.Joiner.Addr, joinWelcome{Scope: m.Scope, Host: n.self, Leaves: leaves})
	n.learn(jp.Joiner)
}

func (n *Node) handleJoinRows(jr joinRows) {
	for _, e := range jr.Rows {
		n.learn(e)
	}
}

func (n *Node) handleJoinWelcome(w joinWelcome) {
	st := n.states[w.Scope]
	if st == nil {
		return
	}
	n.learn(w.Host)
	for _, e := range w.Leaves {
		n.learn(e)
	}
	if !st.joined {
		st.joined = true
		// Announce ourselves to everyone we now know in this scope.
		ann := announce{Scope: w.Scope, Who: n.self}
		for _, e := range st.leaf.Members() {
			_ = n.ep.Send(e.Addr, ann)
		}
		for _, e := range st.table.Entries() {
			_ = n.ep.Send(e.Addr, ann)
		}
		for _, cb := range n.onJoined[w.Scope] {
			cb()
		}
		delete(n.onJoined, w.Scope)
	}
}

func (n *Node) handleAnnounce(a announce) {
	// An announce is first-person evidence of life: the peer itself sent
	// it. A failure tombstone only guards against re-learning dead peers
	// from stale third-party gossip (join rows, repair responses), so a
	// crashed-and-restarted peer announcing its re-join must clear its
	// tombstone — otherwise survivors ignore it for the whole failedTTL
	// and the overlay stays split.
	delete(n.failed, a.Who.ID)
	n.learn(a.Who)
}

// ---------------------------------------------------------------------------
// Failure handling

// NotePeerFailure records that a peer is unreachable: it is removed from
// routing structures, repair is initiated, and failure callbacks fire.
func (n *Node) NotePeerFailure(e Entry) {
	if e.IsZero() || e.ID == n.self.ID {
		return
	}
	n.failed[e.ID] = n.ep.Now()
	if !n.forget(e.ID) {
		return
	}
	// Leaf-set repair: ask the extreme surviving neighbors for their leaf
	// sets to refill ours. Scopes are walked in sorted order so the repair
	// message sequence is reproducible run-to-run.
	for _, scope := range n.Scopes() {
		st := n.states[scope]
		left, right := st.leaf.Extremes()
		for _, x := range []Entry{left, right} {
			if !x.IsZero() {
				_ = n.ep.Send(x.Addr, repairReq{Scope: scope})
			}
		}
	}
	for _, cb := range n.onFailure {
		cb(e)
	}
}

// NoteAddrFailure is NotePeerFailure for callers that only know the
// peer's network address — e.g. transport-level liveness probes (tcpnet
// heartbeats) reporting a dead TCP peer. The canonical Entry is derived
// from the address.
func (n *Node) NoteAddrFailure(a transport.Addr) { n.NotePeerFailure(EntryFor(a)) }

func (n *Node) handleRepairReq(from Entry, r repairReq) {
	st := n.states[r.Scope]
	if st == nil {
		return
	}
	_ = n.ep.Send(from.Addr, repairResp{Scope: r.Scope, Leaves: append(st.leaf.Members(), n.self)})
}

func (n *Node) handleRepairResp(r repairResp) {
	for _, e := range r.Leaves {
		n.learn(e)
	}
}

// ---------------------------------------------------------------------------
// Liveness probing

func (n *Node) scheduleProbe() {
	n.ep.After(n.cfg.ProbeInterval, func() {
		if n.closed.Load() {
			return
		}
		n.probeOnce()
		n.scheduleProbe()
	})
}

func (n *Node) probeOnce() {
	st := n.states[GlobalScope]
	// Probe the leaf set and the routing table: leaf members for ring
	// liveness, table entries so distant peers keep exchanging leaf-set
	// gossip (see probeAck.Leaves) and dead table entries get evicted.
	members := st.leaf.Members()
	seen := make(map[ids.ID]bool, len(members))
	for _, e := range members {
		seen[e.ID] = true
	}
	for _, e := range st.table.Entries() {
		if !seen[e.ID] {
			seen[e.ID] = true
			members = append(members, e)
		}
	}
	if len(members) == 0 {
		return
	}
	n.probeRR = (n.probeRR + 1) % len(members)
	target := members[n.probeRR]
	seq := n.Await(n.cfg.ProbeTimeout, probeAck{}, func(_ any, err error) {
		if err != nil {
			n.NotePeerFailure(target)
		}
	})
	if err := n.ep.Send(target.Addr, probe{Seq: seq}); err != nil {
		n.Settle(seq, nil, err)
	}
}

// ---------------------------------------------------------------------------
// Request/reply correlation

// Await mints a request ID and waits for its reply. cb fires exactly once,
// on the node's event context: with the reply or error handed to Settle,
// or with ErrTimeout once timeout has passed. want is a value of the
// reply's type; Settle refuses a reply of any other type. A timeout <= 0
// arms no timer: the caller owns the deadline and settles the ID itself
// (an ack group has one deadline for all its requests). A call still
// pending when the node closes is abandoned with the node: a closed
// endpoint fires no timers.
func (n *Node) Await(timeout time.Duration, want any, cb func(reply any, err error)) uint64 {
	n.nextReq++
	id := n.nextReq
	p := &pendingCall{want: reflect.TypeOf(want), cb: cb}
	if timeout > 0 {
		p.cancel = n.ep.After(timeout, func() {
			if n.pending[id] == p {
				delete(n.pending, id)
				cb(nil, ErrTimeout)
			}
		})
	}
	n.pending[id] = p
	return id
}

// Settle ends the call waiting on id, handing reply and err to its
// callback, and reports whether one was waiting. false is the late-reply
// signal: the call timed out (or was never made here), and the caller
// unwinds whatever the reply says the remote side did. A reply whose type
// is not the one the call awaits — every layer's IDs share this table, and
// ReqID arrives from the network — is counted, reported false like a late
// one, and leaves the call pending.
func (n *Node) Settle(id uint64, reply any, err error) bool {
	p, ok := n.pending[id]
	if !ok {
		return false
	}
	if err == nil && reflect.TypeOf(reply) != p.want {
		n.cfg.Metrics.Inc("pastry_reply_mismatch_total")
		return false
	}
	delete(n.pending, id)
	if p.cancel != nil {
		p.cancel()
	}
	p.cb(reply, err)
	return true
}

// ---------------------------------------------------------------------------
// Dispatch

func (n *Node) handle(from transport.Addr, msg any) {
	if n.closed.Load() {
		return
	}
	switch v := msg.(type) {
	case *Message:
		if v.App == appJoin {
			// Contribute rows before continuing to route.
			n.joinForwardHook(v)
		}
		n.route(v)
	case directEnvelope:
		n.learn(v.From)
		if app := n.apps[v.App]; app != nil {
			app.Direct(n, v.From, v.Payload)
		}
	case joinStart:
		n.handleJoinStart(v)
	case joinRows:
		n.handleJoinRows(v)
	case joinWelcome:
		n.handleJoinWelcome(v)
	case announce:
		n.handleAnnounce(v)
	case probe:
		// A probe, like an announce, is first-person evidence the peer is
		// alive: clear any stale failure tombstone (e.g. from a lossy spell
		// that ate an earlier ack) so the peer is re-learned instead of
		// being ignored for the whole tombstone TTL.
		delete(n.failed, EntryFor(from).ID)
		n.learn(EntryFor(from))
		var leaves []Entry
		if st := n.states[GlobalScope]; st != nil {
			leaves = st.leaf.Members()
		}
		_ = n.ep.Send(from, probeAck{Seq: v.Seq, Leaves: leaves})
	case probeAck:
		delete(n.failed, EntryFor(from).ID)
		n.learn(EntryFor(from))
		n.Settle(v.Seq, msg, nil)
		// Gossiped entries are third-party information, so learn() keeps its
		// tombstone guard: dead peers are not re-admitted until their
		// failure record expires.
		for _, e := range v.Leaves {
			n.learn(e)
		}
	case repairReq:
		n.handleRepairReq(EntryFor(from), v)
	case repairResp:
		n.handleRepairResp(v)
	}
}
