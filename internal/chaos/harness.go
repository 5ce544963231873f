package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"rbay/internal/core"
	"rbay/internal/ids"
	"rbay/internal/metrics"
	"rbay/internal/monitor"
	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/scribe"
	"rbay/internal/simnet"
	"rbay/internal/store"
	"rbay/internal/transport"
)

// probeAppName is the Pastry application the harness registers on every
// node for routing-convergence probes.
const probeAppName = "chaos.probe"

// ChaosPassword is the password the harness's policy scripts expect and
// the queryability checker presents.
const ChaosPassword = "chaos-pw"

// Options configures the federation under test.
type Options struct {
	// Sites lists participating sites. Default: virginia and tokyo.
	Sites []string
	// NodesPerSite is the per-site agent count. Default 20.
	NodesPerSite int
	// Node overrides the per-node configuration; the zero value takes
	// chaos-tuned fast defaults (short intervals, liveness probing on).
	Node *core.Config
	// Registry overrides the tree catalog. Default: DefaultRegistry.
	Registry *naming.Registry
	// Log, when non-nil, receives each event-log line as it is emitted;
	// the full log is always collected in the Result.
	Log io.Writer
	// Churn arms a seeded utilization random walk on every node, feeding
	// the attribute map once per virtual second like a monitoring agent.
	Churn bool
	// Passwords attaches an onGet password policy to the GPU attribute of
	// the last site's GPU nodes; the queryability checker presents the
	// password.
	Passwords bool
	// PlantStep, when ≥ 1, covertly closes one node right after the
	// (1-based) step with that index is applied, without recording the
	// crash in the harness's bookkeeping — a deliberately planted
	// invariant violation used to validate the checkers themselves.
	PlantStep int
	// Durable backs every node with a crash-consistent virtual disk
	// (store.MemDir): crashes cut the disk at its synced watermark, and
	// restarts recover by snapshot+WAL replay and re-federation instead of
	// re-applying the layout. Arms the durability invariant — no
	// durably-posted resource permanently lost, no reservation
	// double-honored across crash/restart.
	Durable bool
	// Fsync is the durable nodes' fsync policy. Default store.SyncAlways.
	Fsync store.SyncPolicy
	// FsyncInterval is the SyncInterval period (see store.Options).
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if len(o.Sites) == 0 {
		o.Sites = []string{"virginia", "tokyo"}
	}
	if o.NodesPerSite <= 0 {
		o.NodesPerSite = 20
	}
	if o.Registry == nil {
		o.Registry = DefaultRegistry()
	}
	if o.Node == nil {
		cfg := DefaultNodeConfig()
		o.Node = &cfg
	}
	return o
}

// DefaultRegistry builds the harness's tree catalog: a GPU tree, two
// utilization threshold trees, and an instance-type tree (the same layout
// the core tests use).
func DefaultRegistry() *naming.Registry {
	r := naming.NewRegistry()
	r.MustDefine(naming.TreeDef{Name: "GPU", Pred: naming.Pred{Attr: "GPU", Op: naming.OpEq, Value: true}, Creator: "rbay"})
	r.MustDefine(naming.TreeDef{Name: "util<10%", Pred: naming.Pred{Attr: "CPU_utilization", Op: naming.OpLt, Value: 0.10}, Creator: "rbay"})
	r.MustDefine(naming.TreeDef{Name: "util<50%", Pred: naming.Pred{Attr: "CPU_utilization", Op: naming.OpLt, Value: 0.50}, Creator: "rbay"})
	r.MustDefine(naming.TreeDef{Name: "type=c3.large", Pred: naming.Pred{Attr: "instance_type", Op: naming.OpEq, Value: "c3.large"}, Creator: "rbay"})
	return r
}

// DefaultNodeConfig returns the chaos-tuned node configuration: short
// maintenance intervals so scenarios converge in seconds of virtual time,
// and Pastry liveness probing enabled so crashed peers are detected even
// without application traffic.
func DefaultNodeConfig() core.Config {
	return core.Config{
		Pastry: pastry.Config{
			ProbeInterval: time.Second,
			ProbeTimeout:  900 * time.Millisecond,
		},
		Scribe: scribe.Config{
			AggregateInterval: 300 * time.Millisecond,
			AnycastTimeout:    5 * time.Second,
			AggQueryTimeout:   2 * time.Second,
			// The default warmup (3× the aggregate interval) is shorter than
			// failure detection plus children re-join under the second-scale
			// probe cadence above; stretch it so a promoted root serves its
			// snapshot until its own fold has caught up.
			ReplicaTTL: 2 * time.Second,
		},
		MembershipInterval: 500 * time.Millisecond,
		ReserveTTL:         3 * time.Second,
		BackoffSlot:        20 * time.Millisecond,
		SiteQueryTimeout:   4 * time.Second,
	}
}

// Violation is one invariant failure, carrying everything needed to
// reproduce it: the seed and the step trace up to the detection point.
type Violation struct {
	Checker string
	Detail  string
	// Step is the 1-based index of the last applied schedule step when the
	// violation was detected (0 = before any step).
	Step  int
	Seed  int64
	Trace []string
}

func (v Violation) String() string {
	return fmt.Sprintf("invariant %s violated after step %d (seed %d): %s", v.Checker, v.Step, v.Seed, v.Detail)
}

// Result is the outcome of one harness run.
type Result struct {
	Scenario   Scenario
	Violations []Violation
	Counters   *metrics.Registry
	// Metrics merges every surviving node's metric registry (query rounds,
	// anycast visits, reservation releases, …) at quiescence. Virtual time
	// makes the values a pure function of the seed.
	Metrics metrics.Snapshot
	Net     simnet.Stats
	Log     []string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Harness drives one scenario against one simulated federation.
type Harness struct {
	scn  Scenario
	opts Options

	fed *core.Federation
	net *simnet.Network
	reg *naming.Registry
	rng *rand.Rand

	live    map[string]*core.Node // addr string → node
	down    map[string]transport.Addr
	planted map[string]bool
	degrade map[string]simnet.RuleID // site (or "") → degradation rule

	// Durable-mode state: each node's virtual disk and open store log, the
	// durably-synced baseline attributes the durability invariant defends,
	// and the committed leases restarted nodes re-hold (a candidate from
	// this map in any later query is a double-honored reservation).
	disks       map[string]*store.MemDir
	logs        map[string]*store.Log
	durableBase map[string]map[string]any
	leased      map[string]string // addr → committed query ID
	// restoredState keeps the store state each durable restart recovered,
	// keyed by node address; gateway scenarios feed State.Ops back into a
	// rebuilt ops engine the way cmd/rbayd does on boot.
	restoredState map[string]store.State

	counters   *metrics.Registry
	violations []Violation
	logLines   []string
	trace      []string
	start      time.Time
	stepIdx    int // 1-based index of the last applied step

	probeGot  map[uint64]ids.ID
	nextProbe uint64

	// churnOff silences the armed monitor feeds for the quiescent phase:
	// the invariant suite itself advances virtual time (routing probes,
	// aggregate queries), and live churn during those runs would keep
	// flapping tree membership — a node mid-join when checkTrees looks is
	// ongoing churn, not a violation.
	churnOff bool
}

// New builds the federation and settles it, ready for Run.
func New(scn Scenario, opts Options) (*Harness, error) {
	scn = scn.withDefaults()
	opts = opts.withDefaults()
	h := &Harness{
		scn:           scn,
		opts:          opts,
		reg:           opts.Registry,
		rng:           rand.New(rand.NewSource(scn.Seed)),
		live:          make(map[string]*core.Node),
		down:          make(map[string]transport.Addr),
		planted:       make(map[string]bool),
		degrade:       make(map[string]simnet.RuleID),
		disks:         make(map[string]*store.MemDir),
		logs:          make(map[string]*store.Log),
		durableBase:   make(map[string]map[string]any),
		leased:        make(map[string]string),
		restoredState: make(map[string]store.State),
		counters:      metrics.NewRegistry(),
		probeGot:      make(map[uint64]ids.ID),
	}
	fedCfg := core.FedConfig{
		Sites:        opts.Sites,
		NodesPerSite: opts.NodesPerSite,
		Node:         *opts.Node,
		Seed:         scn.Seed,
		// Every chaos campaign round-trips each message through the binary
		// wire codec, so codec regressions fail fault-injection runs, not
		// just unit tests.
		WireRoundtrip: true,
	}
	if opts.Durable {
		fedCfg.StoreFor = func(addr transport.Addr) core.Store {
			dir := store.NewMemDir()
			l, _, err := store.Open(dir, h.storeOpts())
			if err != nil {
				return nil
			}
			h.disks[addr.String()] = dir
			h.logs[addr.String()] = l
			return l
		}
	}
	fed, err := core.NewFederation(h.reg, fedCfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	h.fed = fed
	h.net = fed.Net
	h.net.SeedFaults(scn.Seed)
	for site, ns := range fed.BySite {
		for i, n := range ns {
			h.live[n.Addr().String()] = n
			h.applyLayout(n, site, i)
			if opts.Durable {
				h.recordDurableBase(n)
			}
			n.Pastry().Register(probeAppName, &probeApp{h: h})
			if opts.Churn {
				h.armChurn(n, h.globalIndex(site, i))
			}
		}
	}
	fed.Settle()
	if opts.Durable {
		// Force the baseline onto disk so the durability invariant holds
		// under every fsync policy: what it defends is exactly what was
		// durable before the schedule started.
		h.syncAllStores()
	}
	h.start = h.net.Now()
	return h, nil
}

// storeOpts maps the harness options onto the store's.
func (h *Harness) storeOpts() store.Options {
	return store.Options{Policy: h.opts.Fsync, Interval: h.opts.FsyncInterval}
}

// recordDurableBase snapshots the node's stable layout attributes — the
// ones nothing in a scenario legitimately changes — as the durability
// ground truth. CPU_utilization is deliberately absent: churn rewrites it
// continuously, so only its post-restart existence is checkable (it is
// re-posted either by replay or by the revived monitor feed).
func (h *Harness) recordDurableBase(n *core.Node) {
	base := make(map[string]any, 3)
	for _, name := range []string{"GPU", "instance_type", "mem_gb"} {
		if v, ok := n.Attributes().Get(name); ok {
			base[name] = v
		}
	}
	h.durableBase[n.Addr().String()] = base
}

// syncAllStores fsyncs every open store log, in deterministic order.
func (h *Harness) syncAllStores() {
	keys := make([]string, 0, len(h.logs))
	for k := range h.logs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		_ = h.logs[k].Sync()
	}
}

// Run applies the whole schedule and the invariant suite, returning the
// collected result. It never returns a partial result with a nil error.
func Run(scn Scenario, opts Options) (*Result, error) {
	h, err := New(scn, opts)
	if err != nil {
		return nil, err
	}
	return h.Run(), nil
}

// Federation exposes the federation under test (for tests building on the
// harness).
func (h *Harness) Federation() *core.Federation { return h.fed }

// Run executes the scenario: each step at its virtual-time offset with
// passive checks in between, then heal-all, settle, and the quiescent
// invariant suite.
func (h *Harness) Run() *Result {
	h.logf("setup name=%s sites=%d nodes-per-site=%d seed=%d steps=%d",
		h.scn.Name, len(h.opts.Sites), h.opts.NodesPerSite, h.scn.Seed, len(h.scn.Steps))

	steps := append([]Step(nil), h.scn.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	for i, st := range steps {
		if target := h.start.Add(st.At); target.After(h.net.Now()) {
			h.net.RunUntil(target)
		}
		h.stepIdx = i + 1
		h.apply(st)
		if h.opts.PlantStep == i+1 {
			h.plant()
		}
		h.checkPassive()
	}

	// Quiescence: stop churn, remove every standing fault, let the plane
	// converge, then run the full invariant suite.
	h.churnOff = true
	h.net.HealAllPartitions()
	for site, id := range h.degrade {
		h.net.RemoveRule(id)
		delete(h.degrade, site)
	}
	h.logf("quiesce heal-all settle=%v", h.scn.Settle)
	h.net.RunFor(h.scn.Settle)
	h.checkQuiescent()

	st := h.net.Stats()
	h.counters.Add("net.sent", st.MessagesSent)
	h.counters.Add("net.delivered", st.MessagesDelivered)
	h.counters.Add("net.dropped", st.MessagesDropped)
	h.counters.Add("net.duplicated", st.MessagesDuplicated)
	h.counters.Add("net.jittered", st.MessagesJittered)
	h.counters.Add("net.reordered", st.MessagesReordered)
	merged := metrics.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]metrics.HistSnapshot{}}
	for _, n := range h.liveSorted() {
		merged.Merge(n.Metrics().Snapshot())
	}
	h.logf("done live=%d down=%d violations=%d", len(h.live), len(h.down), len(h.violations))
	return &Result{
		Scenario:   h.scn,
		Violations: h.violations,
		Counters:   h.counters,
		Metrics:    merged,
		Net:        st,
		Log:        h.logLines,
	}
}

// ---------------------------------------------------------------------------
// Step application

func (h *Harness) apply(st Step) {
	count := st.Count
	if count <= 0 {
		count = 1
	}
	switch st.Kind {
	case Crash:
		for c := 0; c < count; c++ {
			h.crashOne(st.Site)
		}
	case Restart:
		for c := 0; c < count; c++ {
			h.restartOne(st.Site)
		}
	case CrashRoot:
		h.crashRootOf(st)
	case Partition:
		if st.Site == st.Peer || h.net.Partitioned(st.Site, st.Peer) {
			h.skip(st, "already partitioned or self-pair")
			return
		}
		h.net.PartitionSites(st.Site, st.Peer)
		h.counters.Inc("faults.partition")
		h.step(fmt.Sprintf("partition %s|%s", st.Site, st.Peer))
	case Heal:
		if !h.net.HealSites(st.Site, st.Peer) {
			h.skip(st, "not partitioned")
			return
		}
		h.counters.Inc("faults.heal")
		h.step(fmt.Sprintf("heal %s|%s", st.Site, st.Peer))
	case Degrade:
		if _, up := h.degrade[st.Site]; up {
			h.skip(st, "already degraded")
			return
		}
		r := st.Rule
		if st.Site != "" {
			r.Match = simnet.MatchSite(st.Site)
		}
		h.degrade[st.Site] = h.net.AddRule(r)
		h.counters.Inc("faults.degrade")
		h.step(fmt.Sprintf("degrade site=%s drop=%.2f dup=%.2f jitter=%v reorder=%.2f/%v",
			st.Site, r.Drop, r.Dup, r.Jitter, r.Reorder, r.ReorderWindow))
	case Undegrade:
		id, up := h.degrade[st.Site]
		if !up {
			h.skip(st, "not degraded")
			return
		}
		h.net.RemoveRule(id)
		delete(h.degrade, st.Site)
		h.counters.Inc("faults.undegrade")
		h.step(fmt.Sprintf("undegrade site=%s", st.Site))
	default:
		h.skip(st, "unknown step kind")
	}
}

func (h *Harness) crashOne(site string) {
	elig := h.crashEligible(site)
	if len(elig) == 0 {
		h.skip(Step{Kind: Crash, Site: site}, "no eligible node")
		return
	}
	n := elig[h.rng.Intn(len(elig))]
	key := n.Addr().String()
	_ = n.Close()
	if disk := h.disks[key]; disk != nil {
		// Power cut: the disk reverts to its synced watermark — whatever the
		// fsync policy had not yet made durable is gone, deterministically.
		disk.Crash()
	}
	delete(h.live, key)
	h.down[key] = n.Addr()
	h.counters.Inc("faults.crash")
	h.step(fmt.Sprintf("crash node=%s", key))
}

// crashRootOf crashes the live root of the step's named tree in its site,
// then immediately watches the tree's aggregate through the promotion
// window: the root's leaf-set replica must take over with the member
// count continuous. Safety floors match the random crash path — a root
// whose loss would sink the site degrades into a recorded skip.
func (h *Harness) crashRootOf(st Step) {
	def, ok := h.reg.Lookup(st.Tree)
	if !ok {
		h.skip(st, "unknown tree "+st.Tree)
		return
	}
	topic := h.reg.TopicFor(st.Site, def)
	var root *core.Node
	for _, n := range h.liveSite(st.Site) {
		if n.Scribe().Info(topic).IsRoot {
			root = n
			break
		}
	}
	if root == nil {
		h.skip(st, "no live root for tree "+st.Tree)
		return
	}
	eligible := false
	for _, n := range h.crashEligible(st.Site) {
		if n == root {
			eligible = true
			break
		}
	}
	if !eligible {
		h.skip(st, "root not crash-eligible")
		return
	}
	key := root.Addr().String()
	_ = root.Close()
	if disk := h.disks[key]; disk != nil {
		disk.Crash()
	}
	delete(h.live, key)
	h.down[key] = root.Addr()
	h.counters.Inc("faults.crashroot")
	h.step(fmt.Sprintf("crash-root tree=%s@%s node=%s", st.Tree, st.Site, key))
	h.watchAggregateContinuity(def, st.Site)
}

// crashEligible returns the site's live nodes whose crash keeps the site
// usable: at least two live nodes and one live boundary router survive.
func (h *Harness) crashEligible(site string) []*core.Node {
	liveSite := h.liveSite(site)
	if len(liveSite) <= 2 {
		return nil
	}
	liveRouters := 0
	routerAddr := make(map[string]bool)
	for _, r := range h.fed.Directory.Routers[site] {
		routerAddr[r.String()] = true
		if _, ok := h.live[r.String()]; ok {
			liveRouters++
		}
	}
	var out []*core.Node
	for _, n := range liveSite {
		key := n.Addr().String()
		if h.planted[key] {
			continue
		}
		if routerAddr[key] && liveRouters <= 1 {
			continue
		}
		out = append(out, n)
	}
	return out
}

func (h *Harness) restartOne(site string) {
	var downSite []transport.Addr
	for _, a := range h.down {
		if a.Site == site {
			downSite = append(downSite, a)
		}
	}
	if len(downSite) == 0 {
		h.skip(Step{Kind: Restart, Site: site}, "nothing down")
		return
	}
	sort.Slice(downSite, func(i, j int) bool { return downSite[i].String() < downSite[j].String() })
	addr := downSite[h.rng.Intn(len(downSite))]
	key := addr.String()

	cfg := *h.opts.Node
	var state store.State
	disk := h.disks[key]
	if disk != nil {
		l, st, err := store.Open(disk, h.storeOpts())
		if err != nil {
			h.violate("durability", fmt.Sprintf("node %s: store unreadable on restart: %v", key, err))
			h.skip(Step{Kind: Restart, Site: site}, "store open failed")
			return
		}
		cfg.Store = l
		h.logs[key] = l
		h.restoredState[key] = st
		state = st
	}
	n, err := h.fed.NewNode(addr, cfg)
	if err != nil {
		h.skip(Step{Kind: Restart, Site: site}, "attach failed: "+err.Error())
		return
	}
	i := hostIndex(addr.Host)
	if disk != nil {
		// Durable restart: state comes from the disk, not from re-applying
		// the layout — losing anything durably posted is the bug class this
		// mode exists to catch.
		if err := n.Restore(state); err != nil {
			h.violate("durability", fmt.Sprintf("node %s: restore failed: %v", key, err))
		}
		h.checkRestoredFidelity(n)
		if r := state.Reservation; r != nil && r.Committed {
			h.leased[key] = r.QueryID
		}
	} else {
		h.applyLayout(n, site, i)
	}
	n.Pastry().Register(probeAppName, &probeApp{h: h})
	n.SetDirectory(h.fed.Directory)
	h.ensureJoined(n, site)
	if h.opts.Churn {
		h.armChurn(n, h.globalIndex(site, i))
	}
	delete(h.down, addr.String())
	h.live[addr.String()] = n
	h.counters.Inc("faults.restart")
	h.step(fmt.Sprintf("restart node=%s", addr.String()))
}

// ensureJoined (re)joins a revived node into the global and site scopes
// through a live same-site seed, retrying every couple of seconds until
// both joins take: a single join message can be lost while fault rules are
// active, and the base protocol does not retry it. Same-site seeds keep
// the bootstrap immune to cross-site partitions.
func (h *Harness) ensureJoined(n *core.Node, site string) {
	var ensure func()
	ensure = func() {
		p := n.Pastry()
		var seed *core.Node
		for _, s := range h.liveSite(site) {
			if s != n {
				seed = s
				break
			}
		}
		if seed != nil {
			if !p.Joined(pastry.GlobalScope) {
				_ = p.JoinGlobal(seed.Addr(), nil)
			}
			if !p.Joined(site) {
				_ = p.JoinSite(seed.Addr(), nil)
			}
		}
		if !p.Joined(pastry.GlobalScope) || !p.Joined(site) {
			p.After(2*time.Second, ensure)
			return
		}
		// Both scopes joined: complete the re-federation sequence now —
		// re-subscribe matching trees and push aggregates — instead of
		// waiting out the membership and aggregation intervals.
		n.Refederate()
	}
	ensure()
}

// checkRestoredFidelity asserts a durable restart recovered every
// durably-synced baseline attribute with its original value.
func (h *Harness) checkRestoredFidelity(n *core.Node) {
	key := n.Addr().String()
	base := h.durableBase[key]
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base[name]
		got, ok := n.Attributes().Get(name)
		if !ok || got != want {
			h.violate("durability",
				fmt.Sprintf("node %s: durably-posted %s=%v lost across restart (got %v, present=%v)",
					key, name, want, got, ok))
		}
	}
}

// plant covertly closes one eligible node without updating the live/down
// bookkeeping: the quiescent checkers must notice the lie.
func (h *Harness) plant() {
	for _, site := range h.sitesSorted() {
		elig := h.crashEligible(site)
		if len(elig) == 0 {
			continue
		}
		n := elig[h.rng.Intn(len(elig))]
		_ = n.Close()
		h.planted[n.Addr().String()] = true
		h.counters.Inc("faults.planted")
		h.step(fmt.Sprintf("plant covert-crash node=%s", n.Addr().String()))
		return
	}
	h.logf("plant skipped: no eligible node")
}

// ---------------------------------------------------------------------------
// Setup helpers

// applyLayout publishes the deterministic attribute layout node i of a site
// carries: GPU on every 4th node, a utilization ramp, an instance-type
// split, and (under Passwords) the last site's GPUs behind an onGet
// password policy.
func (h *Harness) applyLayout(n *core.Node, site string, i int) {
	n.SetAttribute("GPU", i%4 == 0)
	n.SetAttribute("CPU_utilization", float64(i%20)/20.0)
	if i%5 == 0 {
		n.SetAttribute("instance_type", "c3.large")
	} else {
		n.SetAttribute("instance_type", "t2.micro")
	}
	n.SetAttribute("mem_gb", float64(4+i%8))
	if h.opts.Passwords && i%4 == 0 && site == h.opts.Sites[len(h.opts.Sites)-1] {
		_ = n.AttachPolicy("GPU", `
			AA = {Password = "`+ChaosPassword+`"}
			function onGet(caller, password)
				if password == AA.Password then return NodeId end
				return nil
			end
		`)
	}
}

// armChurn drives the node's utilization with a seeded random walk ticking
// once per virtual second, like a site monitoring agent. The walk dies with
// the node's endpoint and is re-armed on restart. Updates go through the
// node's ingest queue — the same durable pipeline real monitor feeds use —
// so chaos scenarios exercise coalescing and batched WAL appends too.
func (h *Harness) armChurn(n *core.Node, idx int) {
	feed := monitor.NewFeed(h.scn.Seed*1000003 + int64(idx)*7)
	feed.Track("CPU_utilization", &monitor.Walk{Cur: float64(idx%20) / 20.0, Min: 0, Max: 1, Step: 0.1})
	var tick func()
	tick = func() {
		if h.churnOff {
			return
		}
		feed.TickInto(func(name string, v any) {
			_ = n.IngestEnqueue(name, v, "monitor", nil)
		})
		n.Pastry().After(time.Second, tick)
	}
	n.Pastry().After(time.Second, tick)
}

func (h *Harness) globalIndex(site string, i int) int {
	for s, name := range h.opts.Sites {
		if name == site {
			return s*h.opts.NodesPerSite + i
		}
	}
	return i
}

func hostIndex(host string) int {
	i, _ := strconv.Atoi(host[1:])
	return i
}

// ---------------------------------------------------------------------------
// Bookkeeping

func (h *Harness) liveSorted() []*core.Node {
	keys := make([]string, 0, len(h.live))
	for k := range h.live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*core.Node, 0, len(keys))
	for _, k := range keys {
		out = append(out, h.live[k])
	}
	return out
}

func (h *Harness) liveSite(site string) []*core.Node {
	var out []*core.Node
	for _, n := range h.liveSorted() {
		if n.Site() == site {
			out = append(out, n)
		}
	}
	return out
}

func (h *Harness) sitesSorted() []string {
	out := append([]string(nil), h.opts.Sites...)
	sort.Strings(out)
	return out
}

// step logs a schedule event and appends it to the reproduction trace.
func (h *Harness) step(msg string) {
	line := h.logf("%s", msg)
	h.trace = append(h.trace, line)
}

func (h *Harness) skip(st Step, why string) {
	h.counters.Inc("faults.skipped")
	h.step(fmt.Sprintf("skip %s site=%s (%s)", st.Kind, st.Site, why))
}

// logf emits one event-log line stamped with the virtual-time offset from
// scenario start. Every value printed is deterministic, so two runs with
// the same seed produce byte-identical logs.
func (h *Harness) logf(format string, args ...any) string {
	d := h.net.Now().Sub(h.start)
	line := fmt.Sprintf("[t+%07.1fs] %s", d.Seconds(), fmt.Sprintf(format, args...))
	h.logLines = append(h.logLines, line)
	if h.opts.Log != nil {
		fmt.Fprintln(h.opts.Log, line)
	}
	return line
}

// violate records an invariant violation with the seed and step trace
// needed to reproduce it.
func (h *Harness) violate(checker, detail string) {
	v := Violation{
		Checker: checker,
		Detail:  detail,
		Step:    h.stepIdx,
		Seed:    h.scn.Seed,
		Trace:   append([]string(nil), h.trace...),
	}
	h.violations = append(h.violations, v)
	h.counters.Inc("checks.violations")
	h.logf("VIOLATION %s: %s", checker, detail)
}

// probeApp records routing-convergence probe deliveries.
type probeApp struct{ h *Harness }

func (p *probeApp) Deliver(n *pastry.Node, m *pastry.Message) {
	if tok, ok := m.Payload.(uint64); ok {
		p.h.probeGot[tok] = n.ID()
	}
}

func (p *probeApp) Forward(*pastry.Node, *pastry.Message, pastry.Entry) bool { return true }

func (p *probeApp) Direct(*pastry.Node, pastry.Entry, any) {}
