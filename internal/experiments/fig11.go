package experiments

import (
	"fmt"
	"strings"
	"time"

	"rbay/internal/core"
	"rbay/internal/ids"
	"rbay/internal/metrics"
	"rbay/internal/sites"
	"rbay/internal/workload"
)

// Fig11Result compares per-site tree-construction latency (onSubscribe)
// with admin-command dissemination latency (onDeliver).
type Fig11Result struct {
	Sites     []string
	Subscribe map[string]*metrics.Dist[time.Duration]
	Deliver   map[string]*metrics.Dist[time.Duration]
}

// Fig11 reproduces the overhead analysis: within every site, measure how
// long each member takes to join its instance-type tree (onSubscribe — a
// local operation, flat across sites), and how long an admin's multicast
// command takes to reach every member (onDeliver — 1..3 tree hops, slower
// in the noisy Asia/SA sites).
func Fig11(sc Scale) (*Fig11Result, error) {
	reg := workload.BuildRegistry()
	fed, err := core.NewFederation(reg, core.FedConfig{
		Sites:        sites.EC2,
		NodesPerSite: sc.NodesPerSite,
		Node:         fastNodeConfig(),
		Seed:         sc.Seed,
		Jitter:       0.05,
		SiteNoise:    sites.DefaultSiteNoise(),
	})
	if err != nil {
		return nil, err
	}
	rng := newRand(sc.Seed + 31)
	for _, n := range fed.Nodes {
		workload.Populate(n.Attributes(), workload.PickType(rng), rng, 0)
	}

	res := &Fig11Result{
		Sites:     append([]string(nil), sites.EC2...),
		Subscribe: make(map[string]*metrics.Dist[time.Duration]),
		Deliver:   make(map[string]*metrics.Dist[time.Duration]),
	}
	for _, s := range res.Sites {
		res.Subscribe[s] = new(metrics.Dist[time.Duration])
		res.Deliver[s] = new(metrics.Dist[time.Duration])
	}

	// (a) onSubscribe: trigger membership everywhere at t0 and record each
	// member's tree-attachment time by stepping the clock.
	type pendingJoin struct {
		node  *core.Node
		topic ids.ID
	}
	var pending []pendingJoin
	start := fed.Net.Now()
	for _, n := range fed.Nodes {
		typeName, _ := n.Attributes().Get("instance_type")
		def, ok := reg.Lookup(workload.TreeName(typeName.(string)))
		if !ok {
			continue
		}
		topic := reg.TopicFor(n.Site(), def)
		pending = append(pending, pendingJoin{node: n, topic: topic})
		n.EvaluateMembershipNow()
	}
	step := 5 * time.Millisecond
	for i := 0; i < 2000 && len(pending) > 0; i++ {
		fed.RunFor(step)
		now := fed.Net.Now()
		remaining := pending[:0]
		for _, pj := range pending {
			info := pj.node.Scribe().Info(pj.topic)
			if info.Subscribed && (info.IsRoot || !info.Parent.IsZero()) {
				res.Subscribe[pj.node.Site()].Add(now.Sub(start))
			} else {
				remaining = append(remaining, pj)
			}
		}
		pending = remaining
	}

	// Let aggregation settle before the multicast phase.
	fed.Settle()

	// (b) onDeliver: each site's admin multicasts a command down every
	// instance tree; members record dissemination latency via the hook.
	done := 0
	for _, n := range fed.Nodes {
		site := n.Site()
		n.SetDeliverHook(func(attrName string, sentAt time.Time) {
			res.Deliver[site].Add(fed.Net.Now().Sub(sentAt))
			done++
		})
	}
	for _, site := range res.Sites {
		admin := fed.BySite[site][0]
		seen := map[string]bool{}
		for _, n := range fed.BySite[site] {
			typeName, _ := n.Attributes().Get("instance_type")
			tree := workload.TreeName(typeName.(string))
			if seen[tree] {
				continue
			}
			seen[tree] = true
			if err := admin.DeliverCommand(tree, "policy-refresh"); err != nil {
				return nil, err
			}
		}
	}
	fed.RunFor(10 * time.Second)
	return res, nil
}

// Render prints per-site onSubscribe vs onDeliver latency.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 11 — tree construction (onSubscribe) vs command delivery (onDeliver)\n")
	t := metrics.NewTable("site", "onSubscribe mean", "onSubscribe p90", "onDeliver mean", "onDeliver p90", "members")
	for _, s := range r.Sites {
		sub, del := r.Subscribe[s], r.Deliver[s]
		t.AddRow(
			sites.DisplayName[s],
			sub.Mean().Round(time.Millisecond),
			sub.Percentile(90).Round(time.Millisecond),
			del.Mean().Round(time.Millisecond),
			del.Percentile(90).Round(time.Millisecond),
			fmt.Sprintf("%d/%d", sub.Count(), del.Count()),
		)
	}
	b.WriteString(t.String())
	return b.String()
}
