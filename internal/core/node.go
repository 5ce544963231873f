package core

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rbay/internal/aal"
	"rbay/internal/attr"
	"rbay/internal/forecast"
	"rbay/internal/ids"
	"rbay/internal/ingest"
	"rbay/internal/metrics"
	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/scribe"
	"rbay/internal/trace"
	"rbay/internal/transport"
)

// recentQueryCap bounds the per-node ring of finished query records kept
// for /debug/queries.
const recentQueryCap = 64

// StabilityPrefix marks the virtual ordering attributes backed by the
// churn predictor (paper §VI future work): "GROUPBY _stability.<attr>"
// ranks candidates by how steady <attr> has been on each node, preferring
// resources whose advertised state will likely still hold when the
// customer arrives.
const StabilityPrefix = "_stability."

// Config tunes an RBAY node. Zero values take defaults.
type Config struct {
	Pastry pastry.Config
	Scribe scribe.Config
	AAL    aal.Options

	// MembershipInterval is the period at which onSubscribe/onUnsubscribe
	// handlers re-evaluate tree membership (the paper's onTimer-driven
	// subscription checks). Default 2s.
	MembershipInterval time.Duration
	// ReserveTTL is how long an uncommitted reservation blocks a node
	// ("the locks on those reserved nodes will be released after a short
	// time window"). Default 5s.
	ReserveTTL time.Duration
	// BackoffSlot is the contention backoff slot time. Default 50ms.
	BackoffSlot time.Duration
	// BackoffCap truncates the exponential (2^c-1 slots, c ≤ cap).
	// Default 6.
	BackoffCap int
	// MaxAttempts bounds re-queries before returning partial results.
	// Default 4.
	MaxAttempts int
	// SiteQueryTimeout bounds one site's query round. Default 10s.
	SiteQueryTimeout time.Duration
	// ViewRefreshInterval is how often a node that owns materialized query
	// views re-multicasts their registrations down the candidate trees, and
	// the unit of the view staleness bound: entries not re-confirmed within
	// 3 × this interval expire. Default 2s.
	ViewRefreshInterval time.Duration

	// Store, when set, durably records attribute and reservation events so
	// the node's state survives a crash (see internal/store and Restore).
	// Nil — the default — keeps everything in memory.
	Store Store
	// IngestHighWater, IngestBatch and IngestErrorCap tune the node's
	// churn-ingestion queue (internal/ingest, docs/INGEST.md): the depth
	// at which enqueues degrade to per-key sampling, the max raw updates
	// per apply batch, and the error-queue bound. Zero values take the
	// ingest package defaults.
	IngestHighWater int
	IngestBatch     int
	IngestErrorCap  int
	// AAQuarantineAfter is the consecutive AA handler-failure threshold
	// after which an attribute's handlers are quarantined. 0 uses
	// attr.DefaultQuarantineAfter; negative disables quarantine.
	AAQuarantineAfter int
}

func (c Config) withDefaults() Config {
	if c.MembershipInterval <= 0 {
		c.MembershipInterval = 2 * time.Second
	}
	if c.ReserveTTL <= 0 {
		c.ReserveTTL = 5 * time.Second
	}
	if c.BackoffSlot <= 0 {
		c.BackoffSlot = 50 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 6
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.SiteQueryTimeout <= 0 {
		c.SiteQueryTimeout = 10 * time.Second
	}
	if c.ViewRefreshInterval <= 0 {
		c.ViewRefreshInterval = 2 * time.Second
	}
	return c
}

// Directory is the federation's bootstrap configuration every node
// receives: the participating sites and each site's boundary routers.
type Directory struct {
	Sites   []string
	Routers map[string][]transport.Addr
}

// reservation locks a node for one query until commit or expiry.
type reservation struct {
	queryID   string
	expires   time.Time
	committed bool
}

// Node is one RBAY participant.
type Node struct {
	cfg   Config
	p     *pastry.Node
	s     *scribe.Scribe
	reg   *naming.Registry
	am    *attr.Map
	dir   Directory
	rng   *rand.Rand
	admin string

	// subscribed maps topic → tree definition for trees this node belongs
	// to (as a member).
	subscribed map[ids.ID]*naming.TreeDef

	reserved *reservation

	// Query-interface state.
	nextQuery uint64
	// idPrefix is the node's pre-rendered "site/host#" query-ID prefix, so
	// minting a query ID is one small-int format plus one concat.
	idPrefix string

	// Stats for experiments.
	stats NodeStats

	// metrics is the node's registry; pastry and scribe share it unless the
	// caller wired their own.
	metrics *metrics.Registry
	// recent is a ring of the last finished queries this node originated.
	recent []QueryRecord

	// deliverHook, when set, observes every admin-command delivery (the
	// Fig. 11 overhead experiment measures dissemination latency with it).
	deliverHook func(attrName string, sentAt time.Time)

	// membershipFn is the periodic maintenance closure, allocated once and
	// re-armed each interval.
	membershipFn func()

	// predictor tracks queryable attributes' churn histories (§VI).
	predictor *forecast.Predictor
	// watched caches the attribute names worth tracking (those the
	// registry's trees predicate over).
	watched []string

	// st is the durable store (nil: in-memory only) and g the gate its
	// records close in front of the node's outputs (gate.go). restoring
	// switches the attr mutation hooks off while Restore replays state that
	// is already on disk.
	st        Store
	g         *gate
	restoring bool

	// ing is the churn-ingestion queue (docs/INGEST.md); applyIngestFn is
	// the drain closure, allocated once and re-armed while updates remain.
	ing           *ingest.Queue
	applyIngestFn func()

	// Materialized query views (see view.go): views this node owns, keyed
	// by canonical query text; subscriptions this node serves as a tree
	// member, keyed by owner+view.
	views    map[string]*viewState
	viewSubs map[string]*viewSub
}

// QueryRecord is one finished query kept in the node's recent-query ring
// (served by /debug/queries and the EXPLAIN path).
type QueryRecord struct {
	QueryID    string        `json:"queryId"`
	Caller     string        `json:"caller"`
	Start      time.Time     `json:"start"`
	Elapsed    time.Duration `json:"elapsed"`
	Attempts   int           `json:"attempts"`
	Conflicts  int           `json:"conflicts"`
	Shortfall  int           `json:"shortfall"`
	Candidates int           `json:"candidates"`
	Err        string        `json:"err,omitempty"`
	Trace      *trace.Span   `json:"trace,omitempty"`
}

// NodeStats counts per-node query activity.
type NodeStats struct {
	Visits       int // anycast visits processed
	Authorized   int // visits that passed predicate + onGet checks
	Denied       int // visits denied by onGet policy
	Conflicts    int // visits that matched but found the node reserved
	SiteQueries  int // site queries served as a router / query interface
	AdminDeliver int // onDeliver commands executed
}

// TreeStats is the global view every tree's aggregation maintains at its
// root (paper §II-B.3: "the size of the tree, the average value of all
// nodes' attributes and etc."): the member count plus the sum of the
// tree's predicate attribute, from which the mean follows.
type TreeStats struct {
	Count int64
	Sum   float64
}

// Mean returns the average attribute value across members (0 when empty
// or non-numeric).
func (t TreeStats) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return t.Sum / float64(t.Count)
}

// statsAggregator combines TreeStats hierarchically; it satisfies the
// paper's composability requirement (associative, commutative, identity).
type statsAggregator struct{}

// zeroStats is the interned identity element: Zero and identity-preserving
// Combine calls return it instead of re-boxing a fresh TreeStats on every
// fold step of every maintenance tick.
var zeroStats any = TreeStats{}

func (statsAggregator) Zero() any { return zeroStats }

func (statsAggregator) Combine(a, b any) any {
	x, _ := a.(TreeStats)
	y, yok := b.(TreeStats)
	// Folding with the identity returns the other operand's existing box;
	// non-TreeStats operands still coerce to the identity as before.
	if x == (TreeStats{}) {
		if yok {
			return b
		}
		return zeroStats
	}
	if y == (TreeStats{}) {
		return a
	}
	return TreeStats{Count: x.Count + y.Count, Sum: x.Sum + y.Sum}
}

// New creates an RBAY node attached to the network at addr. The registry
// is the federation-wide tree catalog (shared, read-only after setup).
func New(net transport.Network, addr transport.Addr, reg *naming.Registry, cfg Config) (*Node, error) {
	return newNode(net, addr, reg, cfg, false)
}

// newNode builds a node. inline makes it sync its store on the event
// context instead of through a flusher goroutine: the simulated
// federation sets it, because simnet is single-threaded.
func newNode(net transport.Network, addr transport.Addr, reg *naming.Registry, cfg Config, inline bool) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Scribe.AggregatorFor == nil {
		cfg.Scribe.AggregatorFor = func(ids.ID) scribe.Aggregator { return statsAggregator{} }
	}
	reg2 := metrics.NewRegistry()
	if cfg.Pastry.Metrics == nil {
		cfg.Pastry.Metrics = reg2
	}
	if cfg.Scribe.Metrics == nil {
		cfg.Scribe.Metrics = reg2
	}
	g := newGate(cfg.Store, reg2, inline)
	if cfg.Store != nil {
		net = gatedNet{Network: net, g: g}
	}
	p, err := pastry.NewNode(net, addr, cfg.Pastry)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		p:          p,
		st:         cfg.Store,
		g:          g,
		reg:        reg,
		rng:        rand.New(rand.NewSource(int64(p.ID().Leading64()))),
		subscribed: make(map[ids.ID]*naming.TreeDef),
		admin:      addr.Site + "-admin",
		predictor:  forecast.NewPredictor(0),
		metrics:    reg2,
		idPrefix:   addr.String() + "#",
		views:      make(map[string]*viewState),
		viewSubs:   make(map[string]*viewSub),
	}
	// Declare the query-path metric surface up front so the first query a
	// node serves doesn't pay lazy histogram construction mid-request.
	reg2.Declare(
		"rbay_query_latency_seconds",
		"rbay_site_query_latency_seconds",
		"rbay_probe_latency_seconds",
		"rbay_anycast_latency_seconds",
		"rbay_backoff_wait_seconds",
		"rbay_view_staleness_seconds",
	)
	reg2.DeclareInt("rbay_query_rounds")
	seen := map[string]bool{}
	for _, def := range reg.Defs() {
		if !seen[def.Pred.Attr] {
			seen[def.Pred.Attr] = true
			n.watched = append(n.watched, def.Pred.Attr)
		}
	}
	n.s = scribe.New(p, cfg.Scribe)
	aalOpts := cfg.AAL
	// Wire the WAL's write-path series (fsync count, group size, flush
	// latency, bytes) into the node's registry when the store exposes
	// them (store.Log does; test fakes need not).
	if sm, ok := n.st.(interface{ SetMetrics(*metrics.Registry) }); ok {
		sm.SetMetrics(reg2)
	}
	n.am = attr.NewMap(attr.Options{
		NodeID:          addr.String(),
		Site:            addr.Site,
		Now:             p.Now,
		AAL:             aalOpts,
		Metrics:         reg2,
		QuarantineAfter: cfg.AAQuarantineAfter,
		// Every attribute mutation feeds the durable store and re-evaluates
		// the node's view subscriptions, so materialized views track posts,
		// withdrawals, and re-posts incrementally.
		OnSet: func(name string, value any) {
			n.storeSet(name, value)
			n.viewsAttrChanged(name)
		},
		OnDelete: func(name string) {
			n.storeDelete(name)
			n.viewsAttrChanged(name)
		},
		OnAttach: n.storeAttach,
	})
	n.applyIngestFn = n.applyIngest
	n.ing = ingest.NewQueue(ingest.Config{
		HighWater: cfg.IngestHighWater,
		BatchSize: cfg.IngestBatch,
		ErrorCap:  cfg.IngestErrorCap,
		Metrics:   reg2,
		Now:       p.Now,
		// Wake runs on the producer's goroutine; After(0, ...) marshals the
		// drain onto the node's single event context.
		Wake: func() { n.p.After(0, n.applyIngestFn) },
	})
	reg2.Declare("rbay_ingest_apply_seconds", "rbay_ingest_staleness_seconds")
	reg2.DeclareInt("rbay_ingest_queue_depth", "rbay_ingest_batch_raw")
	p.Register(AppName, n)
	n.scheduleMembership()
	if n.st != nil {
		if iv := n.st.SyncInterval(); iv > 0 {
			n.scheduleStoreSync(iv)
		}
	}
	return n, nil
}

// Pastry returns the underlying overlay node.
func (n *Node) Pastry() *pastry.Node { return n.p }

// Scribe returns the underlying tree substrate.
func (n *Node) Scribe() *scribe.Scribe { return n.s }

// Attributes returns the node's attribute map.
func (n *Node) Attributes() *attr.Map { return n.am }

// Registry returns the shared tree catalog.
func (n *Node) Registry() *naming.Registry { return n.reg }

// Addr returns the node's address.
func (n *Node) Addr() transport.Addr { return n.p.Addr() }

// Site returns the node's site.
func (n *Node) Site() string { return n.p.Site() }

// Now returns the transport clock.
func (n *Node) Now() time.Time { return n.p.Now() }

// Do schedules fn on the node's single event context. A Node is confined
// to that context (the simulation goroutine under simnet, the endpoint
// dispatch goroutine under tcpnet); code running on any other goroutine —
// CLIs, HTTP handlers, tests against real transports — must wrap every
// Node method call in Do. Under simnet, fn runs when the simulation is
// next driven.
func (n *Node) Do(fn func()) { n.p.After(0, fn) }

// DoWait runs fn on the node's event context and blocks the calling
// goroutine until it returns. It must NOT be used under simnet (nothing
// would drive the event loop); real-transport tools use it for
// synchronous setup.
func (n *Node) DoWait(fn func()) {
	done := make(chan struct{})
	n.Do(func() {
		defer close(done)
		fn()
	})
	<-done
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Metrics returns the node's metrics registry (shared with its pastry and
// scribe layers unless the caller wired separate ones). Reading a snapshot
// is safe from any goroutine; see metrics.Registry.
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// RecentQueries returns the node's ring of finished query records, newest
// last. Must run on the node's event context (wrap in Do off-context).
func (n *Node) RecentQueries() []QueryRecord {
	out := make([]QueryRecord, len(n.recent))
	copy(out, n.recent)
	return out
}

// recordQuery appends a finished query to the recent ring.
func (n *Node) recordQuery(r *queryRun, res QueryResult) {
	rec := QueryRecord{
		QueryID:    res.QueryID,
		Caller:     r.caller,
		Start:      r.started,
		Elapsed:    res.Elapsed,
		Attempts:   res.Attempts,
		Conflicts:  res.Conflicts,
		Shortfall:  res.Shortfall,
		Candidates: len(res.Candidates),
		Trace:      res.Trace,
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	}
	n.recent = append(n.recent, rec)
	if len(n.recent) > recentQueryCap {
		n.recent = n.recent[len(n.recent)-recentQueryCap:]
	}
}

// SetDirectory installs the federation directory (sites and routers).
func (n *Node) SetDirectory(d Directory) { n.dir = d }

// SetDeliverHook installs an observer for admin-command deliveries.
func (n *Node) SetDeliverHook(h func(attrName string, sentAt time.Time)) { n.deliverHook = h }

// Directory returns the installed federation directory.
func (n *Node) Directory() Directory { return n.dir }

// Close detaches the node abruptly — the crash path: the transport drops
// and any durable store keeps only what was already synced. Like Do and
// IngestEnqueue it is safe from any goroutine. Graceful exit is Shutdown
// (see durable.go).
func (n *Node) Close() error { return n.p.Close() }

// ---------------------------------------------------------------------------
// Admin surface ("post resources", in the paper's eBay analogy)

// SetAttribute publishes or updates a resource attribute's value.
func (n *Node) SetAttribute(name string, value any) { n.am.Set(name, value) }

// PostResource is the eBay-style one-step "post" (paper Fig. 2): publish
// an attribute value and optionally attach the admin's policy script to
// it. The next membership pass subscribes the node to every matching
// tree.
func (n *Node) PostResource(name string, value any, policy string) error {
	n.am.Set(name, value)
	if policy == "" {
		return nil
	}
	return n.am.Attach(name, policy)
}

// AttachPolicy binds an admin-written AA script to an attribute.
func (n *Node) AttachPolicy(attrName, script string) error {
	return n.am.Attach(attrName, script)
}

// DeliverCommand multicasts an admin command down a tree in this node's
// site; every member runs its onDeliver handler with the payload.
func (n *Node) DeliverCommand(treeName string, payload any) error {
	def, ok := n.reg.Lookup(treeName)
	if !ok {
		return fmt.Errorf("core: unknown tree %q", treeName)
	}
	topic := n.reg.TopicFor(n.Site(), def)
	cmd := adminCmd{Attr: def.Pred.Attr, From: n.admin, Payload: payload, SentAtNanos: n.Now().UnixNano()}
	return n.s.Multicast(n.Site(), topic, cmd)
}

// TreeSize asks the site-scoped tree's root for its current member count.
func (n *Node) TreeSize(treeName string, cb func(int64, error)) error {
	return n.TreeStats(treeName, func(st TreeStats, err error) { cb(st.Count, err) })
}

// TreeStats asks the site-scoped tree's root for its global view: member
// count and the mean of the tree's predicate attribute across members.
func (n *Node) TreeStats(treeName string, cb func(TreeStats, error)) error {
	def, ok := n.reg.Lookup(treeName)
	if !ok {
		return fmt.Errorf("core: unknown tree %q", treeName)
	}
	topic := n.reg.TopicFor(n.Site(), def)
	return n.s.QueryAggregate(n.Site(), topic, func(v any, err error) {
		if err != nil {
			cb(TreeStats{}, err)
			return
		}
		st, _ := v.(TreeStats)
		cb(st, nil)
	})
}

// SubscribedTrees lists the tree names this node is currently a member of.
func (n *Node) SubscribedTrees() []string {
	out := make([]string, 0, len(n.subscribed))
	for _, def := range n.subscribed {
		out = append(out, def.Name)
	}
	return out
}

// ---------------------------------------------------------------------------
// Tree membership (periodic onSubscribe / onUnsubscribe evaluation)

func (n *Node) scheduleMembership() {
	if n.membershipFn == nil {
		// One closure for the lifetime of the node; re-arming every
		// interval with a fresh one was measurable at scale.
		n.membershipFn = func() {
			n.observeChurn()
			n.evaluateMembership()
			n.viewMaintenance()
			if err := n.am.OnTimerAll(); err != nil {
				// Handler faults must not kill maintenance; the admin sees
				// the effect through their own attribute state.
				_ = err
			}
			n.scheduleMembership()
		}
	}
	n.p.After(n.cfg.MembershipInterval, n.membershipFn)
}

// EvaluateMembershipNow forces an immediate membership pass (tests and
// bootstrap use this to avoid waiting an interval).
func (n *Node) EvaluateMembershipNow() { n.evaluateMembership() }

// observeChurn samples the queryable attributes into the churn predictor.
func (n *Node) observeChurn() {
	now := n.Now()
	for _, name := range n.watched {
		if v, ok := n.am.Get(name); ok {
			n.predictor.Observe(name, v, now)
		}
	}
}

// Stability returns the node's predicted stability score for an attribute
// (0.5 when untracked; see forecast.Tracker.Stability).
func (n *Node) Stability(attrName string) float64 { return n.predictor.Stability(attrName) }

func (n *Node) evaluateMembership() {
	for _, def := range n.reg.Defs() {
		topic := n.reg.TopicFor(n.Site(), def)
		member := n.subscribed[topic] != nil
		want := false
		if v, ok := n.am.Get(def.Pred.Attr); ok && def.Pred.Eval(v) {
			approve, err := n.am.OnSubscribe(def.Pred.Attr, "rbay", def.Name)
			want = err == nil && approve
		}
		switch {
		case want && !member:
			if err := n.s.Subscribe(n.Site(), topic, &treeMember{n: n, def: def}); err == nil {
				n.subscribed[topic] = def
			}
		case member:
			leave := !want
			if !leave {
				if l, err := n.am.OnUnsubscribe(def.Pred.Attr, "rbay", def.Name); err == nil && l {
					leave = true
				}
			}
			if leave {
				n.s.Unsubscribe(topic)
				delete(n.subscribed, topic)
			}
		}
	}
}

// treeMember adapts the node to scribe.Subscriber for one tree.
type treeMember struct {
	n   *Node
	def *naming.TreeDef

	// lastBox caches the boxed LocalValue while the underlying attribute is
	// unchanged (the common case between maintenance ticks). Access is
	// confined to the node's event context, like all Node state.
	lastStats TreeStats
	lastBox   any
}

// OnMulticast implements scribe.Subscriber: admin commands run the
// attribute's onDeliver handler.
func (m *treeMember) OnMulticast(topic ids.ID, payload any) {
	if reg, ok := payload.(viewRegMsg); ok {
		m.n.handleViewReg(reg)
		return
	}
	cmd, ok := payload.(adminCmd)
	if !ok {
		return
	}
	m.n.stats.AdminDeliver++
	if m.n.deliverHook != nil && cmd.SentAtNanos != 0 {
		m.n.deliverHook(cmd.Attr, time.Unix(0, cmd.SentAtNanos))
	}
	_, _ = m.n.am.OnDeliver(cmd.Attr, cmd.From, cmd.Payload)
}

// OnAnycast implements scribe.Subscriber: a query visit (Fig. 7 step 4).
func (m *treeMember) OnAnycast(topic ids.ID, payload any) (any, bool) {
	qv, ok := payload.(queryVisit)
	if !ok {
		return payload, false
	}
	return m.n.processVisit(qv)
}

// LocalValue implements scribe.Subscriber: each member contributes one
// count plus its current value of the tree's predicate attribute.
func (m *treeMember) LocalValue(topic ids.ID) any {
	st := TreeStats{Count: 1}
	if v, ok := m.n.am.Get(m.def.Pred.Attr); ok {
		switch x := v.(type) {
		case float64:
			st.Sum = x
		case int:
			st.Sum = float64(x)
		case bool:
			if x {
				st.Sum = 1
			}
		}
	}
	if m.lastBox == nil || st != m.lastStats {
		m.lastStats = st
		m.lastBox = st
	}
	return m.lastBox
}

// processVisit checks a query against this node and reserves it on match.
func (m *Node) processVisit(qv queryVisit) (any, bool) {
	m.stats.Visits++
	m.metrics.Inc("rbay_visits_total")
	// (i) every query predicate must hold on current attribute values.
	for _, p := range qv.Preds {
		v, ok := m.am.Get(p.Attr)
		if !ok || !p.Eval(v) {
			return qv, false
		}
	}
	// (ii) the AA handler authorizes exposure (password check etc.).
	exposed, err := m.am.OnGet(qv.TreeAttr, qv.Caller, qv.Payload)
	if err != nil || exposed == nil {
		m.stats.Denied++
		m.metrics.Inc("rbay_visit_denied_total")
		return qv, false
	}
	// (iii) reserve the node for this query. A node the origin already
	// holds — reserved through a view serve, or collected by an earlier
	// backoff round — is on the visit's exclude list: it refreshes its
	// lease but must not fill another slot, which would waste anycast
	// buffer space that rightfully belongs to fresh candidates. Held-ness
	// is the origin's verdict, not a local queryID match: a fresh query
	// instance may legitimately reuse an ID (a restarted caller) and must
	// re-reserve the same nodes.
	for _, a := range qv.Exclude {
		if a == m.Addr() {
			if m.reserved != nil && m.reserved.queryID == qv.QueryID {
				m.reserve(qv.QueryID) // idempotent lease refresh
			}
			m.metrics.Inc("rbay_visit_repeats_total")
			return qv, false
		}
	}
	if !m.reserve(qv.QueryID) {
		m.stats.Conflicts++
		m.metrics.Inc("rbay_visit_conflicts_total")
		qv.Conflicts++
		return qv, false
	}
	m.stats.Authorized++
	m.metrics.Inc("rbay_visit_reserved_total")
	var sortKey any
	switch {
	case strings.HasPrefix(qv.OrderBy, StabilityPrefix):
		sortKey = m.predictor.Stability(strings.TrimPrefix(qv.OrderBy, StabilityPrefix))
	case qv.OrderBy != "":
		sortKey, _ = m.am.Get(qv.OrderBy)
	}
	qv.Slots = append(qv.Slots, Candidate{
		NodeID:  fmt.Sprintf("%v", exposed),
		Addr:    m.Addr(),
		Site:    m.Site(),
		SortKey: sortKey,
	})
	done := qv.K > 0 && len(qv.Slots) >= qv.K
	return qv, done
}

// reserve locks the node for queryID; re-reserving for the same query is
// idempotent. Expired reservations free the node.
func (n *Node) reserve(queryID string) bool {
	now := n.Now()
	if r := n.reserved; r != nil {
		if r.queryID == queryID {
			r.expires = now.Add(n.cfg.ReserveTTL)
			n.recordReserve(queryID, r.expires)
			return true
		}
		if !r.committed && now.After(r.expires) {
			n.reserved = nil
		} else {
			return false
		}
	}
	n.reserved = &reservation{queryID: queryID, expires: now.Add(n.cfg.ReserveTTL)}
	n.recordReserve(queryID, n.reserved.expires)
	return true
}

// Reserved reports the query currently holding this node, if any.
func (n *Node) Reserved() (queryID string, committed, ok bool) {
	r := n.reserved
	if r == nil {
		return "", false, false
	}
	if !r.committed && n.Now().After(r.expires) {
		return "", false, false
	}
	return r.queryID, r.committed, true
}

func (n *Node) handleCommit(q commitReq) bool {
	if r := n.reserved; r != nil && r.queryID == q.QueryID {
		if !r.committed && n.Now().After(r.expires) {
			// The lease expired before the commit arrived. Refuse and free
			// the node: other queries already see it as available, so
			// honoring the commit could double-book it. The committer gets
			// an unmatched ack and rolls its operation back.
			n.reserved = nil
			n.recordRelease(q.QueryID)
			n.metrics.Inc("rbay_commit_expired_total")
			return false
		}
		r.committed = true
		n.recordCommit(q.QueryID)
		n.metrics.Inc("rbay_commits_total")
		return true
	}
	n.metrics.Inc("rbay_commit_unknown_total")
	return false
}

// handleRelease frees this node's reservation for the query. It is
// idempotent: a release for a query that no longer holds the node (already
// released, expired, or superseded) is a counted no-op, so duplicate
// releases — surplus trimming across rounds, late-response cleanup racing
// TTL expiry — are always safe.
func (n *Node) handleRelease(q releaseReq) bool {
	if r := n.reserved; r != nil && r.queryID == q.QueryID {
		n.reserved = nil
		n.recordRelease(q.QueryID)
		n.metrics.Inc("rbay_releases_total")
		return true
	}
	n.metrics.Inc("rbay_release_unknown_total")
	return false
}

// ---------------------------------------------------------------------------
// pastry.Application

// Deliver implements pastry.Application (no routed core messages today;
// site queries travel point to point through routers).
func (n *Node) Deliver(_ *pastry.Node, _ *pastry.Message) {}

// Forward implements pastry.Application.
func (n *Node) Forward(_ *pastry.Node, _ *pastry.Message, _ pastry.Entry) bool { return true }

// Direct implements pastry.Application: commit/release and cross-site
// query traffic.
func (n *Node) Direct(_ *pastry.Node, from pastry.Entry, payload any) {
	switch p := payload.(type) {
	case commitReq:
		matched := n.handleCommit(p)
		if p.ReqID != 0 {
			_ = n.p.SendApp(from.Addr, AppName, opAck{ReqID: p.ReqID, Matched: matched})
		}
	case releaseReq:
		matched := n.handleRelease(p)
		if p.ReqID != 0 {
			_ = n.p.SendApp(from.Addr, AppName, opAck{ReqID: p.ReqID, Matched: matched})
		}
	case opAck:
		n.handleOpAck(p, payload)
	case siteQueryReq:
		n.serveSiteQuery(p)
	case siteQueryResp:
		n.handleSiteQueryResp(p, payload)
	case viewSiteReg:
		n.relayViewReg(p)
	case viewUpdateMsg:
		n.handleViewUpdate(p)
	case viewReserveReq:
		resp := n.serveViewReserve(p)
		_ = n.p.SendApp(p.Origin.Addr, AppName, resp)
	case viewReserveResp:
		n.handleViewReserveResp(p, payload)
	case viewAdminReq:
		n.serveViewAdmin(p)
	case viewAdminResp:
		n.p.Settle(p.ReqID, payload, nil)
	}
}
