package scribe

import (
	"errors"
	"reflect"
	"sort"
	"time"

	"rbay/internal/ids"
	"rbay/internal/metrics"
	"rbay/internal/pastry"
)

// AppName is the Pastry application name Scribe registers under.
const AppName = "scribe"

// TopicID derives a tree identifier from its scope (site name, or "" for a
// federation-wide tree) and textual name — the hash of the tree's textual
// name concatenated with its creator, as in the paper (§II-B.2).
func TopicID(scope, name string) ids.ID {
	return ids.HashOf("rbay-tree", scope, name)
}

// Subscriber is the member-side callback surface of a topic.
type Subscriber interface {
	// OnMulticast is invoked on every member when a multicast reaches it.
	OnMulticast(topic ids.ID, payload any)

	// OnAnycast is invoked when a DFS anycast visits this member. It
	// returns the (possibly modified) payload that continues the
	// traversal, plus done=true when the anycast is satisfied and the
	// traversal should stop.
	OnAnycast(topic ids.ID, payload any) (newPayload any, done bool)

	// LocalValue returns this member's contribution to the topic's
	// periodic aggregate.
	LocalValue(topic ids.ID) any
}

// Config tunes a Scribe instance.
type Config struct {
	// AggregateInterval is the period at which members push partial
	// aggregates to their parents (and parents further up). Default 1s.
	AggregateInterval time.Duration
	// ChildTTL is how long a child may stay silent before being pruned.
	// Default 3 × AggregateInterval.
	ChildTTL time.Duration
	// AnycastTimeout bounds Anycast waits. Default 30s.
	AnycastTimeout time.Duration
	// AggQueryTimeout bounds QueryAggregate waits. Default 10s.
	AggQueryTimeout time.Duration
	// AggregatorFor supplies the aggregation function of a topic. All
	// nodes of a federation must agree on it. Defaults to Count for every
	// topic.
	AggregatorFor func(topic ids.ID) Aggregator
	// RootReplicas is how many leaf-set neighbors a tree root pushes its
	// aggregate snapshot to, so a replica can promote with continuous
	// aggregates when the root crashes. 0 means the default (2); negative
	// disables replication.
	RootReplicas int
	// ReplicaTTL bounds how long a replicated snapshot stays servable: a
	// freshly promoted root answers probes from the snapshot for at most
	// this long while its own fold catches up with re-attaching children,
	// and replicas discard snapshots not refreshed within it. This is the
	// staleness bound a post-crash probe can observe. Default 3 ×
	// AggregateInterval (= the default ChildTTL).
	ReplicaTTL time.Duration
	// Metrics, when non-nil, receives tree-substrate observability samples
	// (anycast visits/hops, timeouts, aggregate staleness). Nil disables
	// recording at zero cost.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.AggregateInterval <= 0 {
		c.AggregateInterval = time.Second
	}
	if c.ChildTTL <= 0 {
		c.ChildTTL = 3 * c.AggregateInterval
	}
	if c.AnycastTimeout <= 0 {
		c.AnycastTimeout = 30 * time.Second
	}
	if c.AggQueryTimeout <= 0 {
		c.AggQueryTimeout = 10 * time.Second
	}
	if c.AggregatorFor == nil {
		c.AggregatorFor = func(ids.ID) Aggregator { return Count{} }
	}
	if c.RootReplicas == 0 {
		c.RootReplicas = 2
	}
	if c.ReplicaTTL <= 0 {
		c.ReplicaTTL = 3 * c.AggregateInterval
	}
	return c
}

// ErrNoTree is reported when an aggregate query reaches a rendezvous node
// that holds no tree for the topic.
var ErrNoTree = errors.New("scribe: no such tree")

// ErrTimeout is reported when an anycast or aggregate query gets no answer
// in time.
var ErrTimeout = errors.New("scribe: timed out")

// child tracks one downstream tree neighbor.
type child struct {
	entry    pastry.Entry
	value    any
	hasValue bool
	lastSeen time.Time
}

// topicState is this node's view of one tree.
type topicState struct {
	id    ids.ID
	scope string

	subscribed bool
	forwarder  bool // in the tree purely to connect children
	isRoot     bool
	parent     pastry.Entry
	joining    bool
	joinAt     time.Time // when the outstanding join was sent

	children map[ids.ID]*child
	sub      Subscriber
	agg      Aggregator

	// childSorted caches sortedChildren between membership changes; every
	// maintenance tick folds children in ID order and re-sorting an
	// unchanged set dominated the tick's allocations.
	childSorted []pastry.Entry

	// epoch orders root incarnations: a replica promoting itself bumps it
	// past the snapshot's epoch, and syncs/claims carrying a lower epoch
	// are from a root that has since been superseded.
	epoch uint64

	// Root-side replication state: the replica set last synced to, the
	// value pushed, and when — so the periodic sync is incremental (skipped
	// while value and replica set are unchanged, modulo a keepalive).
	replicaPeers []pastry.Entry
	lastSync     any
	lastSyncOK   bool
	lastSyncAt   time.Time

	// Replica-side state: the snapshot the root pushed to us, and — after a
	// promotion — when we stepped up, bounding how long we serve it.
	snapVal    any
	snapOK     bool
	snapEpoch  uint64
	snapRoot   pastry.Entry
	snapAt     time.Time
	promotedAt time.Time
}

func (t *topicState) inTree() bool { return t.subscribed || t.forwarder || t.isRoot }

// sortedChildren returns the children in ascending ID order, keeping fan-out
// deterministic under the reproducible simulator.
func (t *topicState) sortedChildren() []pastry.Entry {
	if t.childSorted == nil {
		out := make([]pastry.Entry, 0, len(t.children))
		for _, c := range t.children {
			out = append(out, c.entry)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
		t.childSorted = out
	}
	return t.childSorted
}

// removeChild deletes a child and invalidates the sorted-children cache.
func (t *topicState) removeChild(id ids.ID) {
	if _, ok := t.children[id]; ok {
		delete(t.children, id)
		t.childSorted = nil
	}
}

// AnycastResult reports the outcome of an Anycast.
type AnycastResult struct {
	// Payload is the final payload after the traversal (as mutated by
	// visited members).
	Payload any
	// Satisfied is true when some member reported the anycast done,
	// false when the whole tree was exhausted first.
	Satisfied bool
	// Visits counts members that processed the anycast.
	Visits int
	// Hops counts overlay messages spent on routing plus traversal.
	Hops int
	// Err is ErrTimeout or nil.
	Err error
}

// Scribe is one node's tree-management substrate.
type Scribe struct {
	node   *pastry.Node
	cfg    Config
	topics map[ids.ID]*topicState

	// topicsSorted caches sortedTopics between topic-set changes; tickFn is
	// the periodic maintenance closure, allocated once and re-armed on every
	// tick. Both trim per-tick allocations on the maintenance path.
	topicsSorted []*topicState
	tickFn       func()
}

// New creates the Scribe instance for a node and registers it as the
// node's "scribe" application.
func New(node *pastry.Node, cfg Config) *Scribe {
	s := &Scribe{
		node:   node,
		cfg:    cfg.withDefaults(),
		topics: make(map[ids.ID]*topicState),
	}
	node.Register(AppName, s)
	node.OnFailure(s.onPeerFailure)
	// Pre-create the anycast metric surface so the first query through this
	// node doesn't pay lazy histogram construction.
	s.cfg.Metrics.Declare("scribe_aggregate_staleness_seconds")
	s.cfg.Metrics.Declare("scribe_replica_staleness_seconds")
	s.cfg.Metrics.DeclareInt("scribe_anycast_visits", "scribe_anycast_hops")
	s.tickFn = func() {
		s.tick()
		s.scheduleTick()
	}
	s.scheduleTick()
	return s
}

// Node returns the underlying Pastry node.
func (s *Scribe) Node() *pastry.Node { return s.node }

func (s *Scribe) topic(id ids.ID, scope string, create bool) *topicState {
	t := s.topics[id]
	if t == nil && create {
		t = &topicState{
			id:       id,
			scope:    scope,
			children: make(map[ids.ID]*child),
			agg:      s.cfg.AggregatorFor(id),
		}
		s.topics[id] = t
		s.topicsSorted = nil
	}
	return t
}

// ---------------------------------------------------------------------------
// Membership

// Subscribe joins the topic's tree as a member. The subscriber's callbacks
// fire for multicasts, anycast visits, and aggregation contributions.
// Subscribing an already-subscribed topic replaces the subscriber.
func (s *Scribe) Subscribe(scope string, topic ids.ID, sub Subscriber) error {
	t := s.topic(topic, scope, true)
	t.sub = sub
	if t.subscribed {
		return nil
	}
	t.subscribed = true
	if t.inTreeAlready() {
		return nil
	}
	return s.sendJoin(t)
}

// inTreeAlready reports whether the node is already wired into the tree
// (as forwarder or root) and needs no join message.
func (t *topicState) inTreeAlready() bool { return t.forwarder || t.isRoot || !t.parent.IsZero() }

func (s *Scribe) sendJoin(t *topicState) error {
	t.joining = true
	t.joinAt = s.node.Now()
	return s.node.RouteScoped(AppName, t.scope, t.id, joinMsg{Child: s.node.Self()}, false)
}

// joinStale reports whether an outstanding join has gone unanswered long
// enough to retry. A join routed through a node that crashes before
// forwarding it is lost outright — no failure notice reaches the joiner —
// so waiting on t.joining alone would leave the node parentless forever.
func (s *Scribe) joinStale(t *topicState) bool {
	return !t.joining || s.node.Now().Sub(t.joinAt) > s.cfg.ChildTTL
}

// Unsubscribe leaves the topic. The node remains a silent forwarder while
// it still connects children; otherwise it detaches from its parent.
func (s *Scribe) Unsubscribe(topic ids.ID) {
	t := s.topics[topic]
	if t == nil || !t.subscribed {
		return
	}
	t.subscribed = false
	t.sub = nil
	s.maybeDetach(t)
}

// maybeDetach removes this node from the tree if it no longer serves any
// purpose there.
func (s *Scribe) maybeDetach(t *topicState) {
	if t.subscribed || t.isRoot || len(t.children) > 0 {
		return
	}
	if t.snapOK && s.node.Now().Sub(t.snapAt) <= s.cfg.ReplicaTTL {
		// Not a tree member, but holding a live root's replica snapshot:
		// stay resident so a crash can promote us. The state expires with
		// the snapshot once the root stops refreshing it.
		return
	}
	if !t.parent.IsZero() {
		_ = s.node.SendApp(t.parent.Addr, AppName, leaveMsg{Topic: t.id, Child: s.node.Self()})
	}
	delete(s.topics, t.id)
	s.topicsSorted = nil
}

// Subscribed reports whether this node is a member of the topic.
func (s *Scribe) Subscribed(topic ids.ID) bool {
	t := s.topics[topic]
	return t != nil && t.subscribed
}

// TreeInfo describes this node's position in one tree, for tests,
// experiments and debugging.
type TreeInfo struct {
	InTree     bool
	Subscribed bool
	Forwarder  bool
	IsRoot     bool
	Parent     pastry.Entry
	Children   int

	// Replication view: the root incarnation this node knows, whether it
	// holds a replica snapshot, how many replicas a root is syncing to,
	// and whether this root is a crash promotion still in its warmup
	// window (serving the replicated snapshot).
	Epoch       uint64
	HasSnapshot bool
	Replicas    int
	Promoted    bool
}

// Info returns this node's view of the topic.
func (s *Scribe) Info(topic ids.ID) TreeInfo {
	t := s.topics[topic]
	if t == nil {
		return TreeInfo{}
	}
	return TreeInfo{
		InTree:      t.inTree(),
		Subscribed:  t.subscribed,
		Forwarder:   t.forwarder,
		IsRoot:      t.isRoot,
		Parent:      t.parent,
		Children:    len(t.children),
		Epoch:       t.epoch,
		HasSnapshot: t.snapOK,
		Replicas:    len(t.replicaPeers),
		Promoted:    !t.promotedAt.IsZero(),
	}
}

// Topics returns the identifiers of all trees this node participates in,
// in ascending ID order.
func (s *Scribe) Topics() []ids.ID {
	out := make([]ids.ID, 0, len(s.topics))
	for id, t := range s.topics {
		if t.inTree() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Children returns this node's downstream tree neighbors for a topic in
// ascending ID order (nil when the node is not in the tree). Invariant
// checkers use it to validate tree shape against members' parent pointers.
func (s *Scribe) Children(topic ids.ID) []pastry.Entry {
	t := s.topics[topic]
	if t == nil {
		return nil
	}
	return t.sortedChildren()
}

// ---------------------------------------------------------------------------
// Multicast

// Multicast disseminates payload to every member of the topic: the message
// routes to the rendezvous root and flows down the tree (paper: admins use
// this to push policy changes to all members).
func (s *Scribe) Multicast(scope string, topic ids.ID, payload any) error {
	return s.node.RouteScoped(AppName, scope, topic, multicastMsg{Payload: payload}, false)
}

func (s *Scribe) treecast(t *topicState, mc multicastMsg) {
	for _, e := range t.sortedChildren() {
		if e.ID == s.node.ID() {
			continue
		}
		if err := s.node.SendApp(e.Addr, AppName, downcastMsg{Topic: t.id, Payload: mc.Payload}); err != nil {
			s.dropChild(t, e)
		}
	}
	if t.subscribed && t.sub != nil {
		t.sub.OnMulticast(t.id, mc.Payload)
	}
}

// ---------------------------------------------------------------------------
// Anycast

// Anycast walks the topic's tree depth-first starting at the closest tree
// node, letting each visited member process (and mutate) the payload until
// one reports done or the tree is exhausted. RBAY serves customer queries
// this way (paper Fig. 7, steps 3–5).
func (s *Scribe) Anycast(scope string, topic ids.ID, payload any, cb func(AnycastResult)) error {
	id := s.node.Await(s.cfg.AnycastTimeout, anycastDone{}, func(reply any, err error) {
		if err != nil {
			s.cfg.Metrics.Inc("scribe_anycast_timeouts_total")
			cb(AnycastResult{Err: ErrTimeout})
			return
		}
		d := reply.(anycastDone)
		s.cfg.Metrics.Inc("scribe_anycasts_total")
		if !d.Satisfied {
			s.cfg.Metrics.Inc("scribe_anycast_exhausted_total")
		}
		s.cfg.Metrics.ObserveInt("scribe_anycast_visits", d.Visits)
		s.cfg.Metrics.ObserveInt("scribe_anycast_hops", d.Hops)
		cb(AnycastResult{
			Payload:   d.Payload,
			Satisfied: d.Satisfied,
			Visits:    d.Visits,
			Hops:      d.Hops,
		})
	})
	msg := anycastMsg{
		Topic:   topic,
		ID:      id,
		Origin:  s.node.Self(),
		Payload: payload,
		// Pre-size the traversal state: the DFS appends every visited
		// member and its backtrack path, and growing from nil re-allocates
		// at each of the first few hops.
		Visited: make([]ids.ID, 0, 8),
		Stack:   make([]pastry.Entry, 0, 8),
	}
	return s.node.RouteScoped(AppName, scope, topic, msg, false)
}

// handleAnycast continues a DFS traversal at this node.
func (s *Scribe) handleAnycast(t *topicState, am anycastMsg) {
	am.Hops++
	s.continueAnycast(t, am)
}

func (s *Scribe) continueAnycast(t *topicState, am anycastMsg) {
	me := s.node.ID()
	if !am.visited(me) {
		am.Visited = append(am.Visited, me)
		if t.subscribed && t.sub != nil {
			newPayload, done := t.sub.OnAnycast(t.id, am.Payload)
			am.Payload = newPayload
			am.Visits++
			if done {
				s.finishAnycast(am, true)
				return
			}
		}
	}
	// The tree is an undirected graph here: this node's neighbors are its
	// children plus its parent. An anycast that entered the tree at an
	// interior member (Pastry routes it to a nearby tree node, not the
	// root) must also ascend through the parent edge or it would only ever
	// cover the entry node's subtree.
	for {
		next := s.nextUnvisitedNeighbor(t, &am)
		if next.IsZero() {
			break
		}
		am.Stack = append(am.Stack, s.node.Self())
		if err := s.node.SendApp(next.Addr, AppName, am); err != nil {
			am.Stack = am.Stack[:len(am.Stack)-1]
			am.Visited = append(am.Visited, next.ID)
			if _, isChild := t.children[next.ID]; isChild {
				s.dropChild(t, next)
			}
			continue
		}
		return
	}
	// No unvisited neighbors: backtrack along the traversal path.
	for len(am.Stack) > 0 {
		up := am.Stack[len(am.Stack)-1]
		am.Stack = am.Stack[:len(am.Stack)-1]
		if err := s.node.SendApp(up.Addr, AppName, am); err != nil {
			continue
		}
		return
	}
	// Traversal exhausted at the top of the stack.
	s.finishAnycast(am, false)
}

// nextUnvisitedNeighbor picks the traversal's next edge deterministically:
// children in ID order, then the parent.
func (s *Scribe) nextUnvisitedNeighbor(t *topicState, am *anycastMsg) pastry.Entry {
	me := s.node.ID()
	best := pastry.Entry{}
	for _, c := range t.children {
		if c.entry.ID == me || am.visited(c.entry.ID) {
			continue
		}
		if best.IsZero() || c.entry.ID.Less(best.ID) {
			best = c.entry
		}
	}
	if best.IsZero() && !t.parent.IsZero() && !am.visited(t.parent.ID) {
		return t.parent
	}
	return best
}

func (s *Scribe) finishAnycast(am anycastMsg, satisfied bool) {
	done := anycastDone{
		ID:        am.ID,
		Payload:   am.Payload,
		Satisfied: satisfied,
		Visits:    am.Visits,
		Hops:      am.Hops,
	}
	if am.Origin.ID == s.node.ID() {
		s.node.Settle(done.ID, done, nil)
		return
	}
	_ = s.node.SendApp(am.Origin.Addr, AppName, done)
}

// ---------------------------------------------------------------------------
// Aggregation

// QueryAggregate asks the topic's root for the current aggregate value
// (e.g. tree size under Count).
func (s *Scribe) QueryAggregate(scope string, topic ids.ID, cb func(value any, err error)) error {
	id := s.node.Await(s.cfg.AggQueryTimeout, aggReplyMsg{}, func(reply any, err error) {
		switch p, _ := reply.(aggReplyMsg); {
		case err != nil:
			s.cfg.Metrics.Inc("scribe_aggquery_timeouts_total")
			cb(nil, ErrTimeout)
		case p.NoTree:
			cb(nil, ErrNoTree)
		default:
			cb(p.Value, nil)
		}
	})
	return s.node.RouteScoped(AppName, scope, topic, aggQueryMsg{ReqID: id, Origin: s.node.Self()}, false)
}

// aggregate folds this node's subtree: its own contribution (if a member)
// plus the children's cached partials. Children fold in ID order so
// non-commutative rounding (float sums) is reproducible run-to-run.
func (s *Scribe) aggregate(t *topicState) any {
	now := s.node.Now()
	v := t.agg.Zero()
	if t.subscribed && t.sub != nil {
		v = t.agg.Combine(v, t.sub.LocalValue(t.id))
	}
	for _, e := range t.sortedChildren() {
		if c := t.children[e.ID]; c != nil && c.hasValue {
			// A child partial's age bounds how stale this fold can be —
			// the "aggregate staleness" the paper's probe step tolerates.
			s.cfg.Metrics.Observe("scribe_aggregate_staleness_seconds", now.Sub(c.lastSeen))
			v = t.agg.Combine(v, c.value)
		}
	}
	return v
}

// ---------------------------------------------------------------------------
// Root replication

// rootAggregate is the aggregate a root serves to probes and aggregate
// queries. A freshly promoted replica's own fold sees only the children
// that have re-attached so far; until the promotion warmup window closes
// the root serves the replicated snapshot instead — bounded staleness in
// place of the post-crash dip to zero.
func (s *Scribe) rootAggregate(t *topicState) any {
	if !t.promotedAt.IsZero() && t.snapOK {
		now := s.node.Now()
		if now.Sub(t.promotedAt) <= s.cfg.ReplicaTTL {
			s.cfg.Metrics.Observe("scribe_replica_staleness_seconds", now.Sub(t.snapAt))
			return t.snapVal
		}
		// Warmup over: the live fold takes over for good.
		t.promotedAt = time.Time{}
	}
	return s.aggregate(t)
}

// replicaSet picks the root's replicas: the leaf-set members numerically
// closest to the topic — exactly the nodes Pastry would deliver the topic
// to next if this root died.
func (s *Scribe) replicaSet(t *topicState) []pastry.Entry {
	k := s.cfg.RootReplicas
	if k <= 0 {
		return nil
	}
	leaf := s.node.Leaf(t.scope)
	if leaf == nil {
		return nil
	}
	return leaf.ClosestK(t.id, k)
}

// syncReplicas pushes the root's aggregate snapshot to its replica set.
// The push is incremental: skipped while both the value and the replica
// set are unchanged, except for a half-TTL keepalive so replicas can
// expire snapshots of roots that silently vanish.
func (s *Scribe) syncReplicas(t *topicState, now time.Time) {
	if s.cfg.RootReplicas <= 0 {
		return
	}
	v := s.rootAggregate(t)
	// Fast path first: value unchanged and the last push still fresh —
	// nothing to send, and no need to recompute the replica set (the
	// leaf-set sort dominates an idle root's tick otherwise). A closer
	// neighbor joining during this window waits at most a half-TTL
	// keepalive for its first snapshot, well inside the bound replicas
	// enforce before discarding.
	if t.lastSyncOK && now.Sub(t.lastSyncAt) < s.cfg.ReplicaTTL/2 && valuesEqual(t.lastSync, v) {
		s.cfg.Metrics.Inc("scribe_replica_sync_skips_total")
		return
	}
	peers := s.replicaSet(t)
	if len(peers) == 0 {
		return
	}
	t.lastSync, t.lastSyncOK, t.lastSyncAt = v, true, now
	t.replicaPeers = peers
	msg := replicaSyncMsg{Topic: t.id, Scope: t.scope, Root: s.node.Self(), Epoch: t.epoch, Value: v}
	for _, p := range peers {
		if err := s.node.SendApp(p.Addr, AppName, msg); err == nil {
			s.cfg.Metrics.Inc("scribe_replica_syncs_total")
		}
	}
}

// becomeRoot marks this node the topic's rendezvous root. A node stepping
// up while holding another root's fresh snapshot is a crash promotion: it
// bumps the epoch, claims the root role toward the sibling replicas, and
// serves the snapshot through the warmup window.
func (s *Scribe) becomeRoot(t *topicState) {
	if t.isRoot {
		return
	}
	t.isRoot = true
	if t.snapOK && !t.snapRoot.IsZero() && t.snapRoot.ID != s.node.ID() &&
		s.node.Now().Sub(t.snapAt) <= s.cfg.ReplicaTTL {
		s.promote(t)
	}
}

// promote completes a replica's step-up: new epoch past the snapshot's,
// warmup window opened, and a claim sent to the sibling replicas so only
// one of them keeps the role.
func (s *Scribe) promote(t *topicState) {
	t.isRoot = true
	if t.snapEpoch > t.epoch {
		t.epoch = t.snapEpoch
	}
	t.epoch++
	t.promotedAt = s.node.Now()
	s.cfg.Metrics.Inc("scribe_root_promotions_total")
	claim := rootClaimMsg{Topic: t.id, Scope: t.scope, Root: s.node.Self(), Epoch: t.epoch}
	for _, p := range s.replicaSet(t) {
		_ = s.node.SendApp(p.Addr, AppName, claim)
	}
}

// demote strips the root role after losing it to another node (root
// hand-off via childAck, or an outranking sync/claim after a healed
// partition) and keeps the subtree connected.
func (s *Scribe) demote(t *topicState) {
	t.isRoot = false
	t.promotedAt = time.Time{}
	if !t.subscribed && len(t.children) > 0 {
		t.forwarder = true
	}
	if t.inTree() && t.parent.IsZero() && !t.joining {
		_ = s.sendJoin(t)
	}
}

// outranks reports whether a remote root at the given epoch wins the root
// role over this node for the topic: higher epoch, or — same epoch — the
// ID Pastry routing would prefer (closer to the topic).
func (s *Scribe) outranks(t *topicState, root pastry.Entry, epoch uint64) bool {
	if epoch != t.epoch {
		return epoch > t.epoch
	}
	return root.ID.CloserToThan(t.id, s.node.ID())
}

// valuesEqual compares two aggregate values structurally; aggregates are
// small comparable structs or scalars, but DeepEqual keeps the sync path
// safe for aggregators carrying slices.
func valuesEqual(a, b any) bool { return reflect.DeepEqual(a, b) }

// scheduleTick arms the periodic aggregation/maintenance timer.
func (s *Scribe) scheduleTick() {
	s.node.After(s.cfg.AggregateInterval, s.tickFn)
}

// sortedTopics returns this node's topic states in ascending ID order.
// Maintenance and failure handling iterate topics in this order so that the
// message sequence — and with it a whole simulation — is reproducible
// run-to-run (Go map iteration order is not). The result is cached until
// the topic set changes; callers iterate it but must not modify it.
func (s *Scribe) sortedTopics() []*topicState {
	if s.topicsSorted == nil {
		out := make([]*topicState, 0, len(s.topics))
		for _, t := range s.topics {
			out = append(out, t)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id.Less(out[j].id) })
		s.topicsSorted = out
	}
	return s.topicsSorted
}

// Republish forces an immediate maintenance pass — push partial
// aggregates to parents, (re-)join any tree whose parent is missing —
// instead of waiting for the next periodic tick. A node restarting from
// its durable store calls this after re-subscribing so its aggregates
// reach the trees without an AggregateInterval of silence.
func (s *Scribe) Republish() { s.tick() }

// tick pushes partial aggregates to parents, prunes silent children, and
// repairs lost parents.
func (s *Scribe) tick() {
	now := s.node.Now()
	for _, t := range s.sortedTopics() {
		// Prune children we have not heard from.
		for id, c := range t.children {
			if now.Sub(c.lastSeen) > s.cfg.ChildTTL {
				t.removeChild(id)
			}
		}
		if !t.inTree() {
			s.maybeDetach(t)
			continue
		}
		if t.isRoot {
			// Re-route a join toward the topic: if we are still the
			// rendezvous this delivers straight back to us at no cost; if
			// overlay churn moved the rendezvous, this attaches our whole
			// subtree under the new root.
			if !t.joining {
				_ = s.sendJoin(t)
			}
			s.syncReplicas(t, now)
			continue
		}
		if t.parent.IsZero() {
			// Still joining, or the parent died: (re-)join, retrying a
			// lost join once it has gone unanswered past the TTL.
			if s.joinStale(t) {
				_ = s.sendJoin(t)
			}
			continue
		}
		up := aggUpdateMsg{Topic: t.id, Child: s.node.Self(), Value: s.aggregate(t)}
		if err := s.node.SendApp(t.parent.Addr, AppName, up); err != nil {
			t.parent = pastry.Entry{}
			_ = s.sendJoin(t)
		}
	}
}

// dropChild removes a failed child and tells Pastry about the failure.
func (s *Scribe) dropChild(t *topicState, e pastry.Entry) {
	t.removeChild(e.ID)
	s.node.NotePeerFailure(e)
}

// onPeerFailure reacts to Pastry-level failure notices: lost parents
// trigger rejoin, lost children are pruned.
func (s *Scribe) onPeerFailure(e pastry.Entry) {
	for _, t := range s.sortedTopics() {
		if t.parent.ID == e.ID {
			t.parent = pastry.Entry{}
			if t.inTree() && !t.isRoot {
				_ = s.sendJoin(t)
			}
		}
		t.removeChild(e.ID)
		if !t.isRoot && t.snapOK && t.snapRoot.ID == e.ID {
			// The root we replicate died. Step up proactively if routing
			// would now deliver the topic to us; otherwise hold the
			// snapshot — the next rendezvous (a sibling replica) promotes,
			// or a routed message lands here and becomeRoot does.
			if leaf := s.node.Leaf(t.scope); leaf != nil &&
				leaf.Closest(t.id).ID == s.node.ID() &&
				s.node.Now().Sub(t.snapAt) <= s.cfg.ReplicaTTL {
				s.promote(t)
			}
		}
	}
}

func (s *Scribe) addChild(t *topicState, e pastry.Entry) {
	if e.ID == s.node.ID() {
		return
	}
	c := t.children[e.ID]
	if c == nil {
		c = &child{entry: e}
		t.children[e.ID] = c
		t.childSorted = nil
	}
	c.lastSeen = s.node.Now()
}

// ---------------------------------------------------------------------------
// pastry.Application

// Forward implements pastry.Application: joins are intercepted hop by hop
// to grow the tree; anycasts are intercepted by the first tree node on the
// route.
func (s *Scribe) Forward(n *pastry.Node, m *pastry.Message, next pastry.Entry) bool {
	switch p := m.Payload.(type) {
	case joinMsg:
		return s.forwardJoin(m, p)
	case anycastMsg:
		t := s.topics[m.Key]
		if t != nil && t.inTree() {
			p.Hops = m.Hops
			s.handleAnycast(t, p)
			return false
		}
		return true
	default:
		return true
	}
}

func (s *Scribe) forwardJoin(m *pastry.Message, jm joinMsg) bool {
	if jm.Child.ID == s.node.ID() {
		// Our own join passing through on its first hop.
		return true
	}
	t := s.topic(m.Key, m.Scope, true)
	s.addChild(t, jm.Child)
	_ = s.node.SendApp(jm.Child.Addr, AppName, childAckMsg{Topic: t.id, Parent: s.node.Self()})
	if t.inTree() {
		return false // Tree already connects us upward; stop here.
	}
	t.forwarder = true
	m.Payload = joinMsg{Child: s.node.Self()}
	t.joining = true
	return true
}

// Deliver implements pastry.Application: the delivering node is the
// topic's rendezvous root.
func (s *Scribe) Deliver(n *pastry.Node, m *pastry.Message) {
	switch p := m.Payload.(type) {
	case joinMsg:
		t := s.topic(m.Key, m.Scope, true)
		s.becomeRoot(t)
		t.joining = false
		if p.Child.ID != s.node.ID() {
			s.addChild(t, p.Child)
			_ = s.node.SendApp(p.Child.Addr, AppName, childAckMsg{Topic: t.id, Parent: s.node.Self()})
		}
	case multicastMsg:
		t := s.topics[m.Key]
		if t == nil {
			return
		}
		s.becomeRoot(t)
		s.treecast(t, p)
	case anycastMsg:
		t := s.topics[m.Key]
		if t == nil || !t.inTree() {
			// No tree for this topic: report exhaustion.
			p.Hops = m.Hops
			s.finishAnycast(p, false)
			return
		}
		s.becomeRoot(t)
		p.Hops = m.Hops
		s.handleAnycast(t, p)
	case aggQueryMsg:
		t := s.topics[m.Key]
		fresh := t != nil && t.snapOK && s.node.Now().Sub(t.snapAt) <= s.cfg.ReplicaTTL
		if t == nil || (!t.inTree() && !fresh) {
			_ = s.node.SendApp(p.Origin.Addr, AppName, aggReplyMsg{ReqID: p.ReqID, NoTree: true})
			return
		}
		// A bare replica reached here means the old root is gone and we are
		// the new rendezvous: becomeRoot promotes it on the snapshot, and
		// rootAggregate answers from it while the subtree re-attaches.
		s.becomeRoot(t)
		_ = s.node.SendApp(p.Origin.Addr, AppName, aggReplyMsg{ReqID: p.ReqID, Value: s.rootAggregate(t)})
	}
}

// Direct implements pastry.Application: tree-neighbor traffic.
func (s *Scribe) Direct(n *pastry.Node, from pastry.Entry, payload any) {
	switch p := payload.(type) {
	case childAckMsg:
		t := s.topics[p.Topic]
		if t == nil || !t.inTree() {
			return
		}
		t.parent = p.Parent
		t.joining = false
		if t.isRoot {
			// Root hand-off: the rendezvous moved (e.g. a closer node
			// rejoined the overlay) and our re-join attached us under it. If
			// we only stood in the tree as root but still connect children,
			// we must stay as a forwarder or the subtree's aggregates would
			// strand here, skipped by every maintenance tick.
			s.demote(t)
		}
	case leaveMsg:
		t := s.topics[p.Topic]
		if t == nil {
			return
		}
		t.removeChild(p.Child.ID)
		s.maybeDetach(t)
	case downcastMsg:
		t := s.topics[p.Topic]
		if t == nil {
			return
		}
		s.treecast(t, multicastMsg{Payload: p.Payload})
	case aggUpdateMsg:
		t := s.topics[p.Topic]
		if t == nil {
			t = s.topic(p.Topic, from.Addr.Site, true)
		}
		if !t.inTree() {
			// A child believes we are its parent (e.g. after we detached, or
			// a root hand-off left us with children but no role): re-adopt as
			// forwarder so the tree stays connected; we will detach again
			// once the children leave.
			t.forwarder = true
			if t.parent.IsZero() && !t.joining {
				_ = s.sendJoin(t)
			}
		}
		s.addChild(t, p.Child)
		c := t.children[p.Child.ID]
		if c != nil {
			c.value = p.Value
			c.hasValue = true
		}
	case anycastMsg:
		t := s.topics[p.Topic]
		if t == nil {
			// We were pruned from this tree after the traversal started:
			// participate statelessly so the DFS can backtrack through us.
			t = &topicState{id: p.Topic, children: map[ids.ID]*child{}}
		}
		s.continueAnycast(t, withHop(p))
	case replicaSyncMsg:
		if p.Root.ID == s.node.ID() {
			return
		}
		t := s.topic(p.Topic, p.Scope, true)
		if p.Epoch < t.epoch {
			return // sync from a superseded root incarnation
		}
		if t.isRoot {
			if !s.outranks(t, p.Root, p.Epoch) {
				return // we hold the role; our own syncs will demote them
			}
			// Healed partition: the other side's root outranks us (higher
			// epoch, or routing prefers its ID). Stand down and re-attach.
			s.demote(t)
		}
		t.epoch = p.Epoch
		t.snapVal, t.snapOK = p.Value, true
		t.snapEpoch = p.Epoch
		t.snapRoot = p.Root
		t.snapAt = s.node.Now()
	case rootClaimMsg:
		if p.Root.ID == s.node.ID() {
			return
		}
		t := s.topics[p.Topic]
		if t == nil {
			return
		}
		if !s.outranks(t, p.Root, p.Epoch) {
			return
		}
		t.epoch = p.Epoch
		t.snapRoot = p.Root
		if t.isRoot {
			// Lost the promotion race to a sibling replica: stand down
			// before both of us answer probes for the same tree.
			s.demote(t)
		}
	case anycastDone:
		// payload, not p: boxing the typed copy again would allocate.
		s.node.Settle(p.ID, payload, nil)
	case aggReplyMsg:
		s.node.Settle(p.ReqID, payload, nil)
	}
}

func withHop(am anycastMsg) anycastMsg {
	am.Hops++
	return am
}
