package experiments

import (
	"fmt"
	"strings"
	"time"

	"rbay/internal/core"
	"rbay/internal/ganglia"
	"rbay/internal/metrics"
	"rbay/internal/monitor"
	"rbay/internal/naming"
	"rbay/internal/query"
	"rbay/internal/simnet"
	"rbay/internal/sites"
	"rbay/internal/transport"
	"rbay/internal/workload"
)

// ---------------------------------------------------------------------------
// Ablation X1 — centralized hierarchy (Ganglia-style) vs RBAY

// GangliaAblationResult quantifies the central bottleneck the paper's
// §II-A argues against: the central manager's ingest grows with the whole
// federation, while RBAY's busiest peer carries a roughly constant share.
type GangliaAblationResult struct {
	SmallNodes, LargeNodes int
	WindowSeconds          int
	// Central manager ingest at both scales.
	CentralBytesSmall, CentralBytesLarge uint64
	CentralMsgsSmall, CentralMsgsLarge   uint64
	// Busiest RBAY peer at both scales (steady-state tree maintenance).
	RBayMaxSmall, RBayMaxLarge uint64
	// Query latencies from every site at the large scale.
	GangliaLatency map[string]time.Duration
	RBayLatency    map[string]time.Duration
}

// CentralGrowth is the central manager's byte-ingest growth factor from
// the small to the large deployment.
func (r *GangliaAblationResult) CentralGrowth() float64 {
	return float64(r.CentralBytesLarge) / float64(r.CentralBytesSmall)
}

// RBayGrowth is the busiest RBAY peer's load growth factor.
func (r *GangliaAblationResult) RBayGrowth() float64 {
	return float64(r.RBayMaxLarge) / float64(r.RBayMaxSmall)
}

// GangliaAblation runs the same monitoring+query workload over (a) a
// Ganglia-style hierarchy with the central manager in Virginia and (b) an
// RBAY federation, and compares the central node's ingest load with
// RBAY's busiest peer, plus query latency seen from each site.
func GangliaAblation(sc Scale) (*GangliaAblationResult, error) {
	window := 60
	small := sc.NodesPerSite
	large := 4 * small
	res := &GangliaAblationResult{
		SmallNodes:     small * len(sites.EC2),
		LargeNodes:     large * len(sites.EC2),
		WindowSeconds:  window,
		GangliaLatency: make(map[string]time.Duration),
		RBayLatency:    make(map[string]time.Duration),
	}
	var err error
	res.CentralMsgsSmall, res.CentralBytesSmall, _, err = gangliaLoad(sc, small, window, nil)
	if err != nil {
		return nil, err
	}
	res.CentralMsgsLarge, res.CentralBytesLarge, res.GangliaLatency, err = gangliaLoad(sc, large, window, res.GangliaLatency)
	if err != nil {
		return nil, err
	}
	res.RBayMaxSmall, _, err = rbayLoad(sc, small, window, nil)
	if err != nil {
		return nil, err
	}
	res.RBayMaxLarge, res.RBayLatency, err = rbayLoad(sc, large, window, res.RBayLatency)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// gangliaLoad measures the central manager's ingest over the window, and
// (when latencies is non-nil) customer query latency from every site.
func gangliaLoad(sc Scale, perSite, window int, latencies map[string]time.Duration) (msgs, bytes uint64, lat map[string]time.Duration, err error) {
	gnet := simnet.New(sites.NewModel(0.05, 0, sc.Seed))
	var masters []transport.Addr
	for _, s := range sites.EC2 {
		mAddr := transport.Addr{Site: s, Host: "master"}
		if _, err := ganglia.NewMaster(gnet, mAddr, s); err != nil {
			return 0, 0, nil, err
		}
		masters = append(masters, mAddr)
		for i := 0; i < perSite; i++ {
			n, err := ganglia.NewNode(gnet, transport.Addr{Site: s, Host: fmt.Sprintf("n%04d", i)}, mAddr, 2*time.Second)
			if err != nil {
				return 0, 0, nil, err
			}
			n.Set("GPU", i%4 == 0)
			n.Set("CPU_utilization", float64(i%10)/10)
		}
	}
	central, err := ganglia.NewCentral(gnet, transport.Addr{Site: sites.Virginia, Host: "central"}, masters, 5*time.Second)
	if err != nil {
		return 0, 0, nil, err
	}
	gnet.RunFor(time.Duration(window) * time.Second)
	if latencies != nil {
		for _, s := range sites.EC2 {
			cl, err := ganglia.NewClient(gnet, transport.Addr{Site: s, Host: "customer"}, central.Addr())
			if err != nil {
				return 0, 0, nil, err
			}
			t0 := gnet.Now()
			var elapsed time.Duration
			err = cl.Query(3, []naming.Pred{{Attr: "GPU", Op: naming.OpEq, Value: true}}, func([]transport.Addr) {
				elapsed = gnet.Now().Sub(t0)
			})
			if err != nil {
				return 0, 0, nil, err
			}
			gnet.RunFor(5 * time.Second)
			latencies[s] = elapsed
		}
	}
	return gnet.DeliveredTo(central.Addr()), central.BytesIn, latencies, nil
}

// rbayLoad measures the busiest RBAY peer's steady-state message load
// over the window, and (when latencies is non-nil) local query latency
// from every site.
func rbayLoad(sc Scale, perSite, window int, latencies map[string]time.Duration) (maxMsgs uint64, lat map[string]time.Duration, err error) {
	reg := workload.BuildRegistry()
	fed, err := core.NewFederation(reg, core.FedConfig{
		Sites:        sites.EC2,
		NodesPerSite: perSite,
		Node:         fastNodeConfig(),
		Seed:         sc.Seed,
		Jitter:       0.05,
	})
	if err != nil {
		return 0, nil, err
	}
	rng := newRand(sc.Seed + 5)
	for i, n := range fed.Nodes {
		workload.Populate(n.Attributes(), workload.PickType(rng), rng, 0)
		n.SetAttribute("GPU", i%4 == 0)
	}
	fed.Settle()
	before := fed.Net.PerEndpointDelivered()
	fed.RunFor(time.Duration(window) * time.Second)
	after := fed.Net.PerEndpointDelivered()
	var max uint64
	for addrKey, v := range after {
		if d := v - before[addrKey]; d > max {
			max = d
		}
	}
	if latencies != nil {
		gpuQuery := query.MustParse(`SELECT 3 FROM * WHERE GPU = true;`)
		for _, s := range sites.EC2 {
			n := fed.BySite[s][3]
			done := false
			var elapsed time.Duration
			localQ := *gpuQuery
			localQ.Sites = []string{s}
			n.Query(&localQ, func(r core.QueryResult) {
				elapsed = r.Elapsed
				done = true
				n.Release(r.QueryID, r.Candidates)
			})
			for i := 0; i < 300 && !done; i++ {
				fed.RunFor(100 * time.Millisecond)
			}
			latencies[s] = elapsed
		}
	}
	return max, latencies, nil
}

// Render prints the central-load growth comparison.
func (r *GangliaAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — centralized hierarchy vs RBAY (%ds window)\n", r.WindowSeconds)
	t := metrics.NewTable("", fmt.Sprintf("%d nodes", r.SmallNodes), fmt.Sprintf("%d nodes", r.LargeNodes), "growth")
	t.AddRow("central manager ingest",
		formatBytes(int(r.CentralBytesSmall)), formatBytes(int(r.CentralBytesLarge)),
		fmt.Sprintf("%.1fx", r.CentralGrowth()))
	t.AddRow("busiest RBAY peer (msgs)", r.RBayMaxSmall, r.RBayMaxLarge,
		fmt.Sprintf("%.1fx", r.RBayGrowth()))
	b.WriteString(t.String())
	t2 := metrics.NewTable("customer site", "Ganglia central query", "RBAY local query")
	for _, s := range sites.EC2 {
		t2.AddRow(sites.DisplayName[s],
			r.GangliaLatency[s].Round(time.Millisecond),
			r.RBayLatency[s].Round(time.Millisecond))
	}
	b.WriteString(t2.String())
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation X2 — churn sensitivity (the paper's future-work §VI)

// ChurnLevel is one churn configuration sweep point.
type ChurnLevel struct {
	Name string
	// Step is the per-tick random-walk step of CPU_utilization.
	Step float64
}

// ChurnPoint is the measured behavior at one churn level.
type ChurnPoint struct {
	Level        ChurnLevel
	MemberFlaps  int
	QueryOK      int
	QueryPartial int
	MeanLatency  time.Duration
}

// ChurnAblationResult sweeps churn levels.
type ChurnAblationResult struct {
	Points []ChurnPoint
}

// ChurnAblation drives attribute churn through the monitoring feeds and
// measures how tree membership flapping affects query success and
// latency.
func ChurnAblation(sc Scale) (*ChurnAblationResult, error) {
	levels := []ChurnLevel{
		{Name: "calm", Step: 0.01},
		{Name: "moderate", Step: 0.05},
		{Name: "stormy", Step: 0.25},
	}
	res := &ChurnAblationResult{}
	for _, lvl := range levels {
		pt, err := churnAt(sc, lvl)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func churnAt(sc Scale, lvl ChurnLevel) (*ChurnPoint, error) {
	reg := workload.BuildRegistry()
	fed, err := core.NewFederation(reg, core.FedConfig{
		Sites:        []string{sites.Virginia, sites.Oregon},
		NodesPerSite: sc.NodesPerSite,
		Node:         fastNodeConfig(),
		Seed:         sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	rng := newRand(sc.Seed + 7)
	feeds := make([]*monitor.Feed, len(fed.Nodes))
	for i, n := range fed.Nodes {
		workload.Populate(n.Attributes(), workload.PickType(rng), rng, 0)
		feed := monitor.NewFeed(sc.Seed + int64(i))
		feed.Track("CPU_utilization", &monitor.Walk{Cur: rng.Float64(), Min: 0, Max: 1, Step: lvl.Step})
		feeds[i] = feed
		node := n
		f := feed
		var tick func()
		tick = func() {
			f.Tick(node.Attributes())
			node.Pastry().After(time.Second, tick)
		}
		node.Pastry().After(time.Second, tick)
	}
	fed.Settle()

	// Count membership flaps over an observation window.
	pt := &ChurnPoint{Level: lvl}
	prev := make(map[int]int)
	for i, n := range fed.Nodes {
		prev[i] = len(n.SubscribedTrees())
	}
	for w := 0; w < 10; w++ {
		fed.RunFor(2 * time.Second)
		for i, n := range fed.Nodes {
			cur := len(n.SubscribedTrees())
			if cur != prev[i] {
				pt.MemberFlaps++
				prev[i] = cur
			}
		}
	}

	// Queries against the churning utilization tree.
	var lat metrics.Dist[time.Duration]
	q := query.MustParse(`SELECT 3 FROM * WHERE CPU_utilization < 50%;`)
	for i := 0; i < sc.QueriesPerCell; i++ {
		n := fed.Nodes[(i*13+2)%len(fed.Nodes)]
		done := false
		n.Query(q, func(r core.QueryResult) {
			done = true
			lat.Add(r.Elapsed)
			if r.Err == nil && r.Shortfall == 0 {
				pt.QueryOK++
			} else {
				pt.QueryPartial++
			}
			n.Release(r.QueryID, r.Candidates)
		})
		for s := 0; s < 300 && !done; s++ {
			fed.RunFor(100 * time.Millisecond)
		}
		fed.RunFor(time.Second)
	}
	pt.MeanLatency = lat.Mean()
	return pt, nil
}

// Render prints the churn sweep.
func (r *ChurnAblationResult) Render() string {
	t := metrics.NewTable("churn", "walk step", "membership flaps", "queries ok", "partial", "mean latency")
	for _, p := range r.Points {
		t.AddRow(p.Level.Name, p.Level.Step, p.MemberFlaps, p.QueryOK, p.QueryPartial,
			p.MeanLatency.Round(time.Millisecond))
	}
	return "Ablation — query behavior under attribute churn\n" + t.String()
}
