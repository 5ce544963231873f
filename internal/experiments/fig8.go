package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"rbay/internal/attr"
	"rbay/internal/ids"
	"rbay/internal/metrics"
	"rbay/internal/past"
	"rbay/internal/pastry"
	"rbay/internal/simnet"
	"rbay/internal/transport"
)

// ---------------------------------------------------------------------------
// Fig. 8a — per-query hops vs datacenter size

// Fig8aPoint is one sweep point.
type Fig8aPoint struct {
	Nodes    int
	MeanHops float64
	MaxHops  int
	Bound    int // ceil(log16 N), Pastry's guarantee
}

// Fig8aResult is the Fig. 8a series.
type Fig8aResult struct {
	Points []Fig8aPoint
}

// Fig8a reproduces the scale-with-#nodes microbenchmark: single-site
// overlays of increasing size route atomic attribute queries; the average
// hop count must grow linearly with exponential datacenter growth
// (O(log N) routing).
func Fig8a(sc Scale) (*Fig8aResult, error) {
	res := &Fig8aResult{}
	for _, n := range sc.NodeCounts {
		mean, max, err := hopsAtScale(n, sc.AtomicQueries, sc.QueryKeys, sc.Seed, nil)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig8aPoint{
			Nodes:    n,
			MeanHops: mean,
			MaxHops:  max,
			Bound:    ids.ExpectedHops(n),
		})
	}
	return res, nil
}

// traceApp records delivered traces for the microbenchmarks.
type traceApp struct {
	hops metrics.Dist[float64]
}

func (a *traceApp) Deliver(n *pastry.Node, m *pastry.Message) { a.hops.Add(float64(m.Hops)) }
func (a *traceApp) Forward(*pastry.Node, *pastry.Message, pastry.Entry) bool {
	return true
}
func (a *traceApp) Direct(*pastry.Node, pastry.Entry, any) {}

// hopsAtScale builds an n-node overlay and routes queries toward
// keyCount distinct attribute keys, returning hop statistics. When
// perNode is non-nil it receives each node's forward count (Fig. 8b).
func hopsAtScale(n, queries, keyCount int, seed int64, perNode map[string]uint64) (mean float64, max int, err error) {
	net := simnet.New(transport.ConstantLatency(500 * time.Microsecond))
	addrs := make([]transport.Addr, 0, n)
	for i := 0; i < n; i++ {
		addrs = append(addrs, transport.Addr{Site: "dc", Host: fmt.Sprintf("n%05d", i)})
	}
	nodes, err := pastry.Bootstrap(net, addrs, pastry.Config{})
	if err != nil {
		return 0, 0, err
	}
	app := &traceApp{}
	for _, node := range nodes {
		node.Register("bench", app)
	}
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < queries; q++ {
		key := ids.HashOf("attr", fmt.Sprintf("%d", q%keyCount))
		src := nodes[rng.Intn(len(nodes))]
		if err := src.RouteScoped("bench", pastry.GlobalScope, key, nil, false); err != nil {
			return 0, 0, err
		}
	}
	net.Run()
	if perNode != nil {
		for _, node := range nodes {
			perNode[node.ID().String()] = node.Stats().Forwarded
		}
	}
	return app.hops.Mean(), int(app.hops.Max()), nil
}

// Render prints the Fig. 8a series.
func (r *Fig8aResult) Render() string {
	t := metrics.NewTable("#nodes", "mean hops", "max hops", "ceil(log16 N)")
	for _, p := range r.Points {
		t.AddRow(p.Nodes, fmt.Sprintf("%.2f", p.MeanHops), p.MaxHops, p.Bound)
	}
	return "Fig 8a — per-query hops vs datacenter size (O(log N) routing)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Fig. 8b — query-routing load balance

// Fig8bResult summarizes how routing load spreads over NodeIds.
type Fig8bResult struct {
	Nodes        int
	Queries      int
	QueryKeys    int
	ForwardTotal uint64
	// ForwardingNodes is how many distinct nodes carried any load.
	ForwardingNodes int
	MeanPerNode     float64
	MaxPerNode      uint64
	// CV is the coefficient of variation across nodes that forwarded;
	// values near or below 1 indicate the balanced spread of Fig. 8b.
	CV float64
	// PerKeyForwards is total forwards attributable to each query key
	// (Q1..Q10 in the paper).
	PerKeyForwards []uint64
}

// Fig8b tracks the footprints of the atomic queries across intermediate
// nodes: forwards must be spread across the NodeId space, not piled on a
// few hot nodes.
func Fig8b(sc Scale) (*Fig8bResult, error) {
	n := sc.NodeCounts[len(sc.NodeCounts)-1]
	res := &Fig8bResult{Nodes: n, Queries: sc.AtomicQueries, QueryKeys: sc.QueryKeys}

	// Per-key forwards: run each key's queries in isolation to attribute
	// load, then one combined run for the global spread.
	for k := 0; k < sc.QueryKeys; k++ {
		perNode := map[string]uint64{}
		if _, _, err := hopsAtScaleSingleKey(n, sc.AtomicQueries/sc.QueryKeys, k, sc.Seed, perNode); err != nil {
			return nil, err
		}
		var total uint64
		for _, v := range perNode {
			total += v
		}
		res.PerKeyForwards = append(res.PerKeyForwards, total)
	}

	perNode := map[string]uint64{}
	if _, _, err := hopsAtScale(n, sc.AtomicQueries, sc.QueryKeys, sc.Seed, perNode); err != nil {
		return nil, err
	}
	var sum, max uint64
	active := 0
	for _, v := range perNode {
		sum += v
		if v > max {
			max = v
		}
		if v > 0 {
			active++
		}
	}
	res.ForwardTotal = sum
	res.ForwardingNodes = active
	if active > 0 {
		res.MeanPerNode = float64(sum) / float64(active)
		var ss float64
		for _, v := range perNode {
			if v == 0 {
				continue
			}
			d := float64(v) - res.MeanPerNode
			ss += d * d
		}
		res.CV = math.Sqrt(ss/float64(active)) / res.MeanPerNode
	}
	res.MaxPerNode = max
	return res, nil
}

func hopsAtScaleSingleKey(n, queries, key int, seed int64, perNode map[string]uint64) (float64, int, error) {
	net := simnet.New(transport.ConstantLatency(500 * time.Microsecond))
	addrs := make([]transport.Addr, 0, n)
	for i := 0; i < n; i++ {
		addrs = append(addrs, transport.Addr{Site: "dc", Host: fmt.Sprintf("n%05d", i)})
	}
	nodes, err := pastry.Bootstrap(net, addrs, pastry.Config{})
	if err != nil {
		return 0, 0, err
	}
	app := &traceApp{}
	for _, node := range nodes {
		node.Register("bench", app)
	}
	rng := rand.New(rand.NewSource(seed + int64(key)))
	k := ids.HashOf("attr", fmt.Sprintf("%d", key))
	for q := 0; q < queries; q++ {
		src := nodes[rng.Intn(len(nodes))]
		if err := src.RouteScoped("bench", pastry.GlobalScope, k, nil, false); err != nil {
			return 0, 0, err
		}
	}
	net.Run()
	for _, node := range nodes {
		perNode[node.ID().String()] = node.Stats().Forwarded
	}
	return app.hops.Mean(), int(app.hops.Max()), nil
}

// Render prints the Fig. 8b summary.
func (r *Fig8bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8b — routing load balance (%d queries, %d keys, %d nodes)\n",
		r.Queries, r.QueryKeys, r.Nodes)
	t := metrics.NewTable("query", "total forwards")
	for i, f := range r.PerKeyForwards {
		t.AddRow(fmt.Sprintf("Q%d", i+1), f)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "combined: %d forwards over %d nodes (mean %.1f, max %d, CV %.2f)\n",
		r.ForwardTotal, r.ForwardingNodes, r.MeanPerNode, r.MaxPerNode, r.CV)
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 8c — memory vs #attributes, RBAY AAs vs PAST entries

// Fig8cPoint compares footprints at one attribute count.
type Fig8cPoint struct {
	Attrs       int
	RBayBytes   int
	PastBytes   int
	OverheadPct float64
}

// Fig8cResult is the Fig. 8c series.
type Fig8cResult struct {
	Points []Fig8cPoint
}

// Fig8c stores increasing numbers of attributes: RBAY attributes each
// carry the paper's password handler; PAST entries store only the NodeId
// list. The overhead must be negligible through the 1,000s and tens of
// percent at the 10,000s (paper: ≈55%).
func Fig8c(sc Scale) (*Fig8cResult, error) {
	res := &Fig8cResult{}
	// Each attribute's value is the list of NodeIds currently holding it
	// (what both stores exist to return on a get).
	nodeIDs := make([]string, 10)
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("dc/n%04d", i*37)
	}
	for _, count := range sc.AttrCounts {
		m := attr.NewMap(attr.Options{NodeID: "bench-node", Site: "dc"})
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("attr_%06d", i)
			m.Set(name, nodeIDs)
			if err := m.Attach(name, evalPasswordPolicy); err != nil {
				return nil, err
			}
		}
		rbayBytes := m.EstimateBytes()

		store := pastStoreWithEntries(count, nodeIDs)
		pastBytes := store.EstimateBytes()

		res.Points = append(res.Points, Fig8cPoint{
			Attrs:       count,
			RBayBytes:   rbayBytes,
			PastBytes:   pastBytes,
			OverheadPct: 100 * (float64(rbayBytes)/float64(pastBytes) - 1),
		})
	}
	return res, nil
}

// pastStoreWithEntries builds a single disconnected PAST store holding
// count plain entries (the baseline needs no routing for the memory
// accounting).
func pastStoreWithEntries(count int, value []string) *past.Store {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	node, err := pastry.NewNode(net, transport.Addr{Site: "dc", Host: "past0"}, pastry.Config{})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	node.BootstrapAlone()
	store := past.New(node, 0)
	for i := 0; i < count; i++ {
		key := ids.HashOf("attr", fmt.Sprintf("%06d", i))
		_ = store.Insert(key, value, nil)
	}
	net.Run()
	return store
}

// Render prints the Fig. 8c series.
func (r *Fig8cResult) Render() string {
	t := metrics.NewTable("#attributes", "RBAY (AAs)", "PAST (plain)", "overhead")
	for _, p := range r.Points {
		t.AddRow(p.Attrs, formatBytes(p.RBayBytes), formatBytes(p.PastBytes),
			fmt.Sprintf("%.0f%%", p.OverheadPct))
	}
	return "Fig 8c — memory footprint vs #attributes (active attributes vs PAST)\n" + t.String()
}

func formatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
