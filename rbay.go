// Package rbay is the public API of this repository's reproduction of
// "RBAY: A Scalable and Extensible Information Plane for Federating
// Distributed Datacenter Resources" (Chen, Hu, Blough, Kozuch, Wolf —
// ICDCS 2017).
//
// RBAY is an eBay-like information plane for spare datacenter capacity:
// site admins post resource attributes (optionally guarded by
// admin-written "active attribute" policy handlers in a sandboxed
// Lua-like language), and customers discover resources with SQL-like
// composite queries. Underneath, nodes self-organize into a Pastry DHT,
// attributes map to site-scoped Scribe aggregation trees, tree sizes roll
// up to the roots, and queries execute the paper's probe-then-anycast
// protocol with reservation locks and truncated exponential backoff.
//
// Two deployment modes share all protocol code:
//
//   - Simulated: NewSimFederation builds an N-node federation over a
//     deterministic discrete-event network whose inter-site delays follow
//     the paper's measured EC2 RTT matrix (Table II). Virtual time makes
//     thousand-node experiments run in milliseconds. All evaluation
//     figures are regenerated this way.
//
//   - Real: NewTCPNode attaches a node over TCP with the binary wire
//     codec (see cmd/rbayd) for multi-process deployments.
//
// A minimal session:
//
//	reg := rbay.NewRegistry()
//	reg.MustDefine(rbay.TreeDef{
//		Name: "GPU",
//		Pred: rbay.Pred{Attr: "GPU", Op: rbay.OpEq, Value: true},
//	})
//	fed, _ := rbay.NewSimFederation(reg, rbay.SimOptions{NodesPerSite: 20})
//	for _, n := range fed.Nodes() {
//		n.SetAttribute("GPU", true)
//	}
//	fed.Settle()
//	res, _ := fed.QuerySync(fed.Nodes()[0], `SELECT 3 FROM * WHERE GPU = true;`)
package rbay

import (
	"errors"
	"fmt"
	"time"

	"rbay/internal/core"
	"rbay/internal/naming"
	"rbay/internal/query"
	"rbay/internal/sites"
	"rbay/internal/store"
	"rbay/internal/tcpnet"
	"rbay/internal/transport"
	"rbay/internal/workload"
)

// Re-exported vocabulary types. They alias the implementation types so
// values flow freely between the public API and the engine.
type (
	// Pred is one comparison over a node attribute in WHERE clauses and
	// tree definitions.
	Pred = naming.Pred
	// Op is a predicate comparison operator.
	Op = naming.Op
	// TreeDef declares one aggregation tree in the federation's catalog.
	TreeDef = naming.TreeDef
	// Registry is the federation-wide catalog of trees and property links.
	Registry = naming.Registry
	// Query is a parsed SQL-like composite query.
	Query = query.Query
	// Node is one RBAY participant (admin surface + query interface).
	Node = core.Node
	// NodeConfig tunes one node.
	NodeConfig = core.Config
	// Result is a completed query's outcome.
	Result = core.QueryResult
	// Candidate is one discovered resource.
	Candidate = core.Candidate
	// Directory is the federation bootstrap configuration (sites and
	// boundary routers).
	Directory = core.Directory
	// Addr is a node address: site plus host.
	Addr = transport.Addr
)

// Materialized-view re-exports. A recurring query registered with
// Node.RegisterView is maintained incrementally from tree updates and
// served locally with a bounded staleness; see docs/VIEWS.md.
type (
	// ViewMode selects how a query interacts with materialized views.
	ViewMode = core.ViewMode
	// ViewInfo describes one registered view.
	ViewInfo = core.ViewInfo
)

// View modes for Node.QueryVia.
const (
	// ViewAuto serves from a matching view and falls back to the probe
	// protocol when the view cannot fill the request.
	ViewAuto = core.ViewAuto
	// ViewOnly serves exclusively from the view (ErrNoView if absent).
	ViewOnly = core.ViewOnly
	// ViewSkip bypasses views entirely.
	ViewSkip = core.ViewSkip
)

// ErrNoView is returned in ViewOnly mode when no view matches the query.
var ErrNoView = core.ErrNoView

// Predicate operators.
const (
	OpEq = naming.OpEq
	OpNe = naming.OpNe
	OpLt = naming.OpLt
	OpLe = naming.OpLe
	OpGt = naming.OpGt
	OpGe = naming.OpGe
)

// Durable-store re-exports. A node given a Store (NodeConfig.Store)
// records every recoverable state change — attribute posts/withdrawals,
// policy attachments, reservation transitions — through it; after a
// restart, OpenStore replays the disk and Node.Restore + Node.Refederate
// bring the node back. See docs/RECOVERY.md.
type (
	// Store is a node's durable event sink; OpenStore builds one.
	Store = core.Store
	// StoreState is the recovered state OpenStore returns, fed to
	// Node.Restore before the node rejoins the overlay.
	StoreState = store.State
	// SyncPolicy selects who waits for the write-ahead log's fsync.
	SyncPolicy = store.SyncPolicy
)

// Fsync policies (see docs/RECOVERY.md for the durability trade-offs).
const (
	SyncAlways   = store.SyncAlways
	SyncInterval = store.SyncInterval
	SyncNever    = store.SyncNever
)

// ParseSyncPolicy parses the -fsync flag spelling: "always", "interval",
// or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return store.ParseSyncPolicy(s) }

// OpenStore opens (creating as needed) the snapshot+WAL store under dir
// and replays it. Wire the returned Store into NodeConfig.Store, feed the
// StoreState to Node.Restore after construction, and call Node.Refederate
// once the node has rejoined the overlay. A torn or corrupt WAL tail — the
// write a crash interrupted — is detected by checksum, truncated durably,
// and every record before it recovered. interval only applies under
// SyncInterval (0 means the store default).
func OpenStore(dir string, policy SyncPolicy, interval time.Duration) (Store, StoreState, error) {
	d, err := store.OpenOSDir(dir)
	if err != nil {
		return nil, StoreState{}, err
	}
	l, state, err := store.Open(d, store.Options{Policy: policy, Interval: interval})
	if err != nil {
		return nil, StoreState{}, err
	}
	return l, state, nil
}

// NewRegistry creates an empty tree catalog.
func NewRegistry() *Registry { return naming.NewRegistry() }

// EC2Registry builds the paper's evaluation catalog: the 23 EC2 instance
// types as trees nested under their families, plus GPU and utilization
// trees.
func EC2Registry() *Registry { return workload.BuildRegistry() }

// EC2Sites lists the paper's eight evaluation sites.
func EC2Sites() []string { return append([]string(nil), sites.EC2...) }

// ParseQuery parses SQL-like query text (paper Fig. 6 syntax).
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// SimOptions configures a simulated federation.
type SimOptions struct {
	// Sites lists the federation's sites; defaults to the paper's eight
	// EC2 regions with Table II latencies.
	Sites []string
	// NodesPerSite defaults to 20 (the paper's VM count per site).
	NodesPerSite int
	// RoutersPerSite defaults to 2.
	RoutersPerSite int
	// Node tunes every node.
	Node NodeConfig
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Jitter is the latency jitter fraction (0.05 = ±5%).
	Jitter float64
	// RealisticAgents enables the calibrated per-site agent-noise model
	// (processing cost and unstable-network tails; see
	// sites.DefaultSiteNoise) that the evaluation harness uses to land in
	// the paper's absolute latency bands.
	RealisticAgents bool
	// WireRoundtrip routes every simulated message through the binary wire
	// codec (docs/WIRE.md) at send time, so the simulation exercises the
	// same marshal/unmarshal code as a real TCP deployment.
	WireRoundtrip bool
}

// Federation is a fully simulated RBAY deployment.
type Federation struct {
	inner *core.Federation
}

// NewSimFederation builds a simulated federation over the shared registry.
func NewSimFederation(reg *Registry, opts SimOptions) (*Federation, error) {
	cfg := core.FedConfig{
		Sites:          opts.Sites,
		NodesPerSite:   opts.NodesPerSite,
		RoutersPerSite: opts.RoutersPerSite,
		Node:           opts.Node,
		Seed:           opts.Seed,
		Jitter:         opts.Jitter,
		WireRoundtrip:  opts.WireRoundtrip,
	}
	if opts.RealisticAgents {
		cfg.SiteNoise = sites.DefaultSiteNoise()
	}
	fed, err := core.NewFederation(reg, cfg)
	if err != nil {
		return nil, err
	}
	return &Federation{inner: fed}, nil
}

// Nodes returns every node, grouped by creation order.
func (f *Federation) Nodes() []*Node { return f.inner.Nodes }

// Site returns one site's nodes.
func (f *Federation) Site(name string) []*Node { return f.inner.BySite[name] }

// Sites returns the federation's site names.
func (f *Federation) Sites() []string { return f.inner.Directory.Sites }

// RunFor advances virtual time, processing all due events.
func (f *Federation) RunFor(d time.Duration) { f.inner.RunFor(d) }

// Now returns the current virtual time.
func (f *Federation) Now() time.Time { return f.inner.Net.Now() }

// Settle triggers a membership pass everywhere and runs until trees and
// aggregates converge.
func (f *Federation) Settle() { f.inner.Settle() }

// SimStats summarizes simulated-network activity. Dropped counts messages
// lost in flight — with no fault rules armed, any non-zero value means a
// payload failed the wire codec round-trip (see SimOptions.WireRoundtrip).
type SimStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

// SimStats returns a snapshot of the simulated network's counters.
func (f *Federation) SimStats() SimStats {
	st := f.inner.Net.Stats()
	return SimStats{Sent: st.MessagesSent, Delivered: st.MessagesDelivered, Dropped: st.MessagesDropped}
}

// ErrQueryTimedOut is returned by QuerySync when the query's callback
// never fires within the driving window.
var ErrQueryTimedOut = errors.New("rbay: query did not complete")

// QuerySync parses sql, issues it through n's query interface, and drives
// virtual time until the result arrives.
func (f *Federation) QuerySync(n *Node, sql string) (Result, error) {
	return f.QuerySyncAs(n, sql, n.Addr().String(), nil)
}

// QuerySyncAs is QuerySync with an explicit caller identity and onGet
// payload (password, credentials).
func (f *Federation) QuerySyncAs(n *Node, sql, caller string, payload any) (Result, error) {
	return f.QuerySyncVia(n, sql, caller, payload, ViewAuto)
}

// QuerySyncVia is QuerySyncAs with an explicit view mode: ViewOnly serves
// exclusively from a registered materialized view, ViewSkip always walks
// the trees, ViewAuto (the QuerySyncAs default) prefers a view and falls
// back to the walk.
//
// The federation is driven one event at a time until the result callback
// fires, so only events virtually ordered before the query's completion
// run — the query's own protocol chain plus whatever background
// maintenance was already due — rather than a fixed slab of virtual time.
func (f *Federation) QuerySyncVia(n *Node, sql, caller string, payload any, mode ViewMode) (Result, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return Result{}, fmt.Errorf("rbay: %w", err)
	}
	return f.QuerySyncParsed(n, q, caller, payload, mode)
}

// QuerySyncParsed is QuerySyncVia for a pre-parsed query — the form a
// recurring caller uses, paying the parser once per query text.
func (f *Federation) QuerySyncParsed(n *Node, q *Query, caller string, payload any, mode ViewMode) (Result, error) {
	var res Result
	done := false
	n.QueryVia(q, caller, payload, mode, func(r Result) { res = r; done = true })
	deadline := f.inner.Net.Now().Add(2 * time.Minute)
	for !done && f.inner.Net.Now().Before(deadline) {
		if !f.inner.Net.Step() {
			break
		}
	}
	if !done {
		return Result{}, ErrQueryTimedOut
	}
	return res, nil
}

// TCPOptions configures a real-network node.
type TCPOptions struct {
	// Listen is the local TCP bind address, e.g. ":7946".
	Listen string
	// Resolve maps node addresses to TCP host:ports.
	Resolve func(Addr) (string, error)
	// Node tunes the node.
	Node NodeConfig
	// Registry is the shared tree catalog.
	Registry *Registry
	// Transport tunes the TCP transport's resilience machinery
	// (reconnect backoff, heartbeats, queue bounds); the zero value uses
	// the tcpnet defaults. See tcpnet.Config.
	Transport TransportConfig
}

// TransportConfig re-exports the TCP transport tuning knobs.
type TransportConfig = tcpnet.Config

// TransportStats re-exports the TCP transport counters snapshot.
type TransportStats = tcpnet.Stats

// TCPNode is an RBAY node attached to a real TCP network.
//
// Confinement contract: the Node runs on a single dispatch goroutine.
// Code on any other goroutine (your main, HTTP handlers, tests) must wrap
// every Node method call in Node.Do or Node.DoWait; calling methods
// directly races with message processing. Simulated federations have no
// such requirement — everything runs on the goroutine driving virtual
// time.
type TCPNode struct {
	Node *Node
	net  *tcpnet.Network
}

// NewTCPNode starts a node at addr over real TCP. The caller joins it to
// an existing federation with Node.Pastry().JoinGlobal / JoinSite, or
// calls Node.Pastry().BootstrapAlone() for the first node.
func NewTCPNode(addr Addr, opts TCPOptions) (*TCPNode, error) {
	core.RegisterWire()
	if opts.Registry == nil {
		opts.Registry = NewRegistry()
	}
	if opts.Resolve == nil {
		return nil, errors.New("rbay: TCPOptions.Resolve is required")
	}
	net, err := tcpnet.ListenConfig(opts.Listen, tcpnet.Resolver(opts.Resolve), opts.Transport)
	if err != nil {
		return nil, err
	}
	n, err := core.New(net, addr, opts.Registry, opts.Node)
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	// Surface transport-level liveness verdicts (heartbeat timeouts,
	// exhausted reconnects) to the overlay so leaf-set repair fires on
	// real deployments, not just under simnet failure injection. The
	// callback runs on a transport goroutine; Do marshals it onto the
	// node's event context.
	net.OnPeerDown(func(a transport.Addr) {
		n.Do(func() { n.Pastry().NoteAddrFailure(a) })
	})
	return &TCPNode{Node: n, net: net}, nil
}

// ListenAddr returns the bound TCP address.
func (t *TCPNode) ListenAddr() string { return t.net.ListenAddr() }

// Transport returns the underlying TCP network, for registering
// additional OnPeerDown observers or reading counters.
func (t *TCPNode) Transport() *tcpnet.Network { return t.net }

// TransportStats returns a snapshot of the TCP transport counters.
func (t *TCPNode) TransportStats() TransportStats { return t.net.Stats() }

// Close shuts the node and its network down abruptly (the crash path: no
// departure announcement, the store left unsynced past its policy). Safe
// from any goroutine, and it never waits on the node's event context. Use
// Shutdown for a graceful exit.
func (t *TCPNode) Close() error {
	_ = t.Node.Close()
	return t.net.Close()
}

// Shutdown leaves the federation gracefully: releasable reservations are
// released, every subscribed tree is left (parents prune immediately), the
// durable store is flushed and closed, and the network shut down. Safe to
// call from any goroutine — the node work is marshalled onto the node's
// event context.
func (t *TCPNode) Shutdown() error {
	var err error
	t.Node.DoWait(func() { err = t.Node.Shutdown() })
	if cerr := t.net.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
