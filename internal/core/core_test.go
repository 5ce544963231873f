package core

import (
	"fmt"
	"testing"
	"time"

	"rbay/internal/naming"
	"rbay/internal/query"
	"rbay/internal/scribe"
)

// testRegistry builds a small catalog: a GPU tree, two utilization
// threshold trees, and an instance-type tree.
func testRegistry(t testing.TB) *naming.Registry {
	t.Helper()
	r := naming.NewRegistry()
	r.MustDefine(naming.TreeDef{Name: "GPU", Pred: naming.Pred{Attr: "GPU", Op: naming.OpEq, Value: true}, Creator: "rbay"})
	r.MustDefine(naming.TreeDef{Name: "util<10%", Pred: naming.Pred{Attr: "CPU_utilization", Op: naming.OpLt, Value: 0.10}, Creator: "rbay"})
	r.MustDefine(naming.TreeDef{Name: "util<50%", Pred: naming.Pred{Attr: "CPU_utilization", Op: naming.OpLt, Value: 0.50}, Creator: "rbay"})
	r.MustDefine(naming.TreeDef{Name: "type=c3.large", Pred: naming.Pred{Attr: "instance_type", Op: naming.OpEq, Value: "c3.large"}, Creator: "rbay"})
	return r
}

func fastConfig() Config {
	return Config{
		Scribe:             scribe.Config{AggregateInterval: 300 * time.Millisecond},
		MembershipInterval: 500 * time.Millisecond,
		ReserveTTL:         3 * time.Second,
		BackoffSlot:        20 * time.Millisecond,
	}
}

// newTestFed builds a two-site federation with a deterministic attribute
// layout:
//   - node i in each site has GPU=true iff i%4==0
//   - CPU_utilization = (i%20)/20.0 (so i%20<2 ⇒ util<10%)
//   - instance_type  = "c3.large" iff i%5==0, else "t2.micro"
func newTestFed(t *testing.T, sitesList []string, perSite int) *Federation {
	t.Helper()
	reg := testRegistry(t)
	fed, err := NewFederation(reg, FedConfig{
		Sites:        sitesList,
		NodesPerSite: perSite,
		Node:         fastConfig(),
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range fed.BySite {
		for i, n := range ns {
			n.SetAttribute("GPU", i%4 == 0)
			n.SetAttribute("CPU_utilization", float64(i%20)/20.0)
			if i%5 == 0 {
				n.SetAttribute("instance_type", "c3.large")
			} else {
				n.SetAttribute("instance_type", "t2.micro")
			}
			n.SetAttribute("mem_gb", float64(4+i%8))
		}
	}
	fed.Settle()
	return fed
}

// runQuery drives a query to completion and returns the result.
func runQuery(t *testing.T, fed *Federation, n *Node, src string) QueryResult {
	t.Helper()
	return runQueryAs(t, fed, n, src, n.Addr().String(), nil)
}

func runQueryAs(t *testing.T, fed *Federation, n *Node, src, caller string, payload any) QueryResult {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	var res QueryResult
	fired := false
	n.QueryAs(q, caller, payload, func(r QueryResult) { res = r; fired = true })
	// Advance in small steps so post-conditions (reservations etc.) are
	// observed right after completion, not after TTLs expired.
	for i := 0; i < 600 && !fired; i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if !fired {
		t.Fatalf("query %q never completed", src)
	}
	return res
}

func TestSingleSiteQueryFindsExactMatches(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	n := fed.BySite["virginia"][7]
	res := runQuery(t, fed, n, `SELECT * FROM virginia WHERE GPU = true;`)
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	// Nodes 0,4,8,...,36 have GPUs: 10 of 40.
	if len(res.Candidates) != 10 {
		t.Fatalf("candidates = %d, want 10 (%v)", len(res.Candidates), res.Candidates)
	}
	for _, c := range res.Candidates {
		if c.Site != "virginia" {
			t.Errorf("candidate from %s", c.Site)
		}
	}
}

func TestCompositeQueryFiltersAllPredicates(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	n := fed.BySite["virginia"][3]
	res := runQuery(t, fed, n,
		`SELECT * FROM virginia WHERE GPU = true AND CPU_utilization < 10%;`)
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	// GPU: i%4==0; util<0.10: i%20 in {0,1}. Intersection: i%20==0 → i in
	// {0,20} → 2 nodes.
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2: %v", len(res.Candidates), res.Candidates)
	}
	// The probe must have chosen the smaller tree (util<10%: 4 members vs
	// GPU: 10 members).
	st := res.PerSite["virginia"]
	if st.TreeSize != 4 {
		t.Errorf("searched tree size = %d, want 4 (the smaller util tree)", st.TreeSize)
	}
}

func TestSelectKLimitsAndReleasesSurplus(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	n := fed.BySite["virginia"][1]
	res := runQuery(t, fed, n, `SELECT 3 FROM virginia WHERE GPU = true;`)
	if res.Err != nil || len(res.Candidates) != 3 {
		t.Fatalf("res = %+v", res)
	}
	fed.RunFor(time.Second)
	// Exactly 3 nodes may remain reserved; surplus must have been freed.
	reserved := 0
	for _, node := range fed.BySite["virginia"] {
		if _, _, ok := node.Reserved(); ok {
			reserved++
		}
	}
	if reserved != 3 {
		t.Fatalf("reserved nodes = %d, want 3", reserved)
	}
}

func TestCrossSiteQueryMergesSites(t *testing.T) {
	fed := newTestFed(t, []string{"virginia", "tokyo", "ireland"}, 20)
	n := fed.BySite["tokyo"][5]
	res := runQuery(t, fed, n, `SELECT * FROM * WHERE GPU = true;`)
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	// 5 GPU nodes per site × 3 sites.
	if len(res.Candidates) != 15 {
		t.Fatalf("candidates = %d, want 15", len(res.Candidates))
	}
	bySite := map[string]int{}
	for _, c := range res.Candidates {
		bySite[c.Site]++
	}
	for _, s := range []string{"virginia", "tokyo", "ireland"} {
		if bySite[s] != 5 {
			t.Errorf("site %s contributed %d, want 5", s, bySite[s])
		}
	}
	if len(res.PerSite) != 3 {
		t.Errorf("PerSite = %v", res.PerSite)
	}
	// Cross-site latency must reflect the RTT to the most remote site and
	// stay in the paper's regime (~hundreds of ms, not seconds).
	if res.Elapsed <= 0 || res.Elapsed > 3*time.Second {
		t.Errorf("elapsed = %v", res.Elapsed)
	}
}

func TestExplicitSiteSubsetQueried(t *testing.T) {
	fed := newTestFed(t, []string{"virginia", "tokyo", "ireland"}, 20)
	n := fed.BySite["virginia"][2]
	res := runQuery(t, fed, n, `SELECT * FROM virginia, ireland WHERE GPU = true;`)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Candidates) != 10 {
		t.Fatalf("candidates = %d, want 10", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Site == "tokyo" {
			t.Error("tokyo must not be queried")
		}
	}
}

func TestPasswordPolicyGatesExposure(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 30)
	// Protect every GPU node with a password.
	for i, node := range fed.BySite["virginia"] {
		if i%4 != 0 {
			continue
		}
		err := node.AttachPolicy("GPU", `
			AA = {Password = "s3cret"}
			function onGet(caller, password)
				if password == AA.Password then return NodeId end
				return nil
			end
		`)
		if err != nil {
			t.Fatal(err)
		}
	}
	n := fed.BySite["virginia"][1]
	res := runQueryAs(t, fed, n, `SELECT * FROM virginia WHERE GPU = true;`, "joe", "wrong-guess")
	if len(res.Candidates) != 0 {
		t.Fatalf("wrong password exposed %d nodes", len(res.Candidates))
	}
	res = runQueryAs(t, fed, n, `SELECT * FROM virginia WHERE GPU = true;`, "joe", "s3cret")
	if len(res.Candidates) != 8 {
		t.Fatalf("right password found %d, want 8", len(res.Candidates))
	}
}

func TestGroupByOrdersResults(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	n := fed.BySite["virginia"][0]
	res := runQuery(t, fed, n,
		`SELECT * FROM virginia WHERE GPU = true GROUPBY mem_gb DESC;`)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Candidates) < 2 {
		t.Fatalf("too few candidates: %d", len(res.Candidates))
	}
	for i := 1; i < len(res.Candidates); i++ {
		a := res.Candidates[i-1].SortKey.(float64)
		b := res.Candidates[i].SortKey.(float64)
		if a < b {
			t.Fatalf("not descending at %d: %v < %v", i, a, b)
		}
	}
}

func TestQueryUnknownAttributeFails(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 10)
	n := fed.BySite["virginia"][0]
	res := runQuery(t, fed, n, `SELECT * FROM virginia WHERE quantum_flux = true;`)
	if res.Err == nil {
		t.Fatal("expected ErrNoPlan-style failure")
	}
}

func TestMembershipFollowsAttributeChurn(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 30)
	victim := fed.BySite["virginia"][0] // GPU node, util 0.0
	if got := victim.SubscribedTrees(); len(got) == 0 {
		t.Fatalf("victim subscribed to nothing")
	}
	// Node becomes loaded: it must leave both utilization trees within a
	// few membership intervals, and queries must stop returning it.
	victim.SetAttribute("CPU_utilization", 0.95)
	fed.RunFor(5 * time.Second)
	for _, name := range victim.SubscribedTrees() {
		if name == "util<10%" || name == "util<50%" {
			t.Fatalf("overloaded node still in %s", name)
		}
	}
	n := fed.BySite["virginia"][3]
	res := runQuery(t, fed, n, `SELECT * FROM virginia WHERE CPU_utilization < 10%;`)
	for _, c := range res.Candidates {
		if c.Addr == victim.Addr() {
			t.Fatal("overloaded node still returned by query")
		}
	}
	// And it comes back when idle again.
	victim.SetAttribute("CPU_utilization", 0.01)
	fed.RunFor(5 * time.Second)
	found := false
	for _, name := range victim.SubscribedTrees() {
		if name == "util<10%" {
			found = true
		}
	}
	if !found {
		t.Fatal("idle node did not rejoin util<10% tree")
	}
}

func TestReservationConflictAndBackoff(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	// 10 GPU nodes exist. Two concurrent queries each want 7: they cannot
	// both be satisfied; together they must not hold more than 10, and no
	// node may be handed to both.
	qa := query.MustParse(`SELECT 7 FROM virginia WHERE GPU = true;`)
	qb := query.MustParse(`SELECT 7 FROM virginia WHERE GPU = true;`)
	na := fed.BySite["virginia"][11]
	nb := fed.BySite["virginia"][22]
	var ra, rb QueryResult
	doneA, doneB := false, false
	na.QueryAs(qa, "alice", nil, func(r QueryResult) { ra = r; doneA = true })
	nb.QueryAs(qb, "bob", nil, func(r QueryResult) { rb = r; doneB = true })
	fed.RunFor(60 * time.Second)
	if !doneA || !doneB {
		t.Fatal("queries did not complete")
	}
	seen := map[string]string{}
	for _, c := range ra.Candidates {
		seen[c.Addr.String()] = "alice"
	}
	for _, c := range rb.Candidates {
		if owner, dup := seen[c.Addr.String()]; dup {
			t.Fatalf("node %s handed to both %s and bob", c.Addr, owner)
		}
	}
	total := len(ra.Candidates) + len(rb.Candidates)
	if total > 10 {
		t.Fatalf("queries jointly hold %d nodes, only 10 exist", total)
	}
	if ra.Shortfall+rb.Shortfall != 14-total {
		t.Errorf("shortfall accounting: %d+%d vs total %d", ra.Shortfall, rb.Shortfall, total)
	}
	if ra.Conflicts+rb.Conflicts == 0 {
		t.Error("no conflicts recorded despite contention")
	}
}

func TestCommitAndReleaseLifecycle(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	n := fed.BySite["virginia"][5]
	res := runQuery(t, fed, n, `SELECT 2 FROM virginia WHERE GPU = true;`)
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	n.Commit(res.QueryID, res.Candidates)
	fed.RunFor(time.Second)
	// Committed nodes stay locked past the reservation TTL.
	fed.RunFor(10 * time.Second)
	committed := 0
	for _, node := range fed.BySite["virginia"] {
		if _, c, ok := node.Reserved(); ok && c {
			committed++
		}
	}
	if committed != 2 {
		t.Fatalf("committed = %d, want 2", committed)
	}
	// A competing exhaustive query must not see the committed nodes.
	res2 := runQuery(t, fed, fed.BySite["virginia"][9], `SELECT * FROM virginia WHERE GPU = true;`)
	if len(res2.Candidates) != 8 {
		t.Fatalf("query against committed pool found %d, want 8", len(res2.Candidates))
	}
	// Release frees them again.
	n.Release(res.QueryID, res.Candidates)
	fed.RunFor(time.Second)
	// Also release res2's reservations so the pool drains fully.
	fed.BySite["virginia"][9].Release(res2.QueryID, res2.Candidates)
	fed.RunFor(5 * time.Second)
	res3 := runQuery(t, fed, fed.BySite["virginia"][9], `SELECT * FROM virginia WHERE GPU = true;`)
	if len(res3.Candidates) != 10 {
		t.Fatalf("after release found %d, want 10", len(res3.Candidates))
	}
}

func TestReservationExpiresWithoutCommit(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	n := fed.BySite["virginia"][5]
	res := runQuery(t, fed, n, `SELECT 4 FROM virginia WHERE GPU = true;`)
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	// Never commit; after the TTL the nodes are free again.
	fed.RunFor(10 * time.Second)
	res2 := runQuery(t, fed, fed.BySite["virginia"][7], `SELECT * FROM virginia WHERE GPU = true;`)
	if len(res2.Candidates) != 10 {
		t.Fatalf("after TTL expiry found %d, want 10", len(res2.Candidates))
	}
}

func TestDeliverCommandRunsOnDeliverEverywhere(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 30)
	// Every GPU node gets a deliver handler that applies admin updates to
	// its rental price.
	for i, node := range fed.BySite["virginia"] {
		if i%4 != 0 {
			continue
		}
		node.SetAttribute("price", 1.0)
		if err := node.AttachPolicy("GPU", `
			function onDeliver(caller, payload)
				setattr("price", payload)
				return nil
			end
		`); err != nil {
			t.Fatal(err)
		}
	}
	admin := fed.BySite["virginia"][0]
	if err := admin.DeliverCommand("GPU", 2.5); err != nil {
		t.Fatal(err)
	}
	fed.RunFor(3 * time.Second)
	for i, node := range fed.BySite["virginia"] {
		if i%4 != 0 {
			continue
		}
		if v, _ := node.Attributes().Get("price"); v != 2.5 {
			t.Fatalf("node %d price = %v, want 2.5", i, v)
		}
	}
	if admin.Stats().AdminDeliver == 0 {
		t.Error("admin node itself should have executed onDeliver")
	}
}

func TestTreeSizeProbe(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	var size int64 = -1
	err := fed.BySite["virginia"][3].TreeSize("GPU", func(s int64, err error) {
		if err != nil {
			t.Errorf("probe: %v", err)
			return
		}
		size = s
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.RunFor(2 * time.Second)
	if size != 10 {
		t.Fatalf("GPU tree size = %d, want 10", size)
	}
}

func TestQueryLatencyScalesWithMostRemoteSite(t *testing.T) {
	fed := newTestFed(t, []string{"virginia", "oregon", "saopaulo", "singapore"}, 15)
	n := fed.BySite["virginia"][4]
	near := runQuery(t, fed, n, `SELECT * FROM virginia WHERE GPU = true;`)
	far := runQuery(t, fed, n, `SELECT * FROM virginia, singapore WHERE GPU = true;`)
	if near.Err != nil || far.Err != nil {
		t.Fatalf("errs: %v %v", near.Err, far.Err)
	}
	if near.Elapsed >= far.Elapsed {
		t.Errorf("local (%v) should be faster than cross-continent (%v)", near.Elapsed, far.Elapsed)
	}
	// Local queries finish well under the paper's 200ms bound.
	if near.Elapsed > 200*time.Millisecond {
		t.Errorf("local query took %v, paper bound ~200ms", near.Elapsed)
	}
}

func TestRouterFailureFallsBackToSecondRouter(t *testing.T) {
	fed := newTestFed(t, []string{"virginia", "tokyo"}, 20)
	// Crash tokyo's first router; queries from virginia must still reach
	// tokyo through the second router.
	tokyoRouters := fed.Directory.Routers["tokyo"]
	if len(tokyoRouters) < 2 {
		t.Fatal("need 2 routers")
	}
	for _, node := range fed.BySite["tokyo"] {
		if node.Addr() == tokyoRouters[0] {
			node.Close()
		}
	}
	n := fed.BySite["virginia"][6]
	res := runQuery(t, fed, n, `SELECT * FROM tokyo WHERE GPU = true;`)
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	// The crashed router was itself a GPU node (index 0): 4 remain.
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(res.Candidates))
	}
}

func TestConcurrentQueriesFromAllSites(t *testing.T) {
	fed := newTestFed(t, []string{"virginia", "oregon", "tokyo"}, 20)
	done := 0
	for s, ns := range fed.BySite {
		for i := 0; i < 5; i++ {
			node := ns[(i*3)%len(ns)]
			q := query.MustParse(fmt.Sprintf(`SELECT 1 FROM %s WHERE CPU_utilization < 50%%;`, s))
			node.Query(q, func(r QueryResult) {
				if r.Err == nil && len(r.Candidates) == 1 {
					done++
				}
			})
		}
	}
	fed.RunFor(30 * time.Second)
	if done != 15 {
		t.Fatalf("completed = %d, want 15", done)
	}
}

func TestStabilityRankingPrefersSteadyNodes(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 30)
	// Make half the GPU nodes' utilization flap wildly while the others
	// stay frozen; membership ticks feed the churn predictor.
	flappy := map[string]bool{}
	for i, n := range fed.BySite["virginia"] {
		if i%4 != 0 {
			continue
		}
		if (i/4)%2 == 1 {
			flappy[n.Addr().String()] = true
		}
	}
	for round := 0; round < 30; round++ {
		for i, n := range fed.BySite["virginia"] {
			if i%4 != 0 || !flappy[n.Addr().String()] {
				continue
			}
			// Keep the value inside util<50% so tree membership holds, but
			// make it noisy.
			n.SetAttribute("CPU_utilization", 0.05+0.3*float64((round+i)%2))
		}
		fed.RunFor(time.Second)
	}
	n := fed.BySite["virginia"][1]
	res := runQuery(t, fed, n,
		`SELECT * FROM virginia WHERE GPU = true GROUPBY _stability.CPU_utilization DESC;`)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Candidates) < 6 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	// Scores must be descending, and the steady half must outrank the
	// flapping half.
	half := len(res.Candidates) / 2
	for i, c := range res.Candidates {
		score, ok := c.SortKey.(float64)
		if !ok {
			t.Fatalf("candidate %d sort key %T", i, c.SortKey)
		}
		if i > 0 {
			prev := res.Candidates[i-1].SortKey.(float64)
			if score > prev {
				t.Fatalf("not descending at %d: %v > %v", i, score, prev)
			}
		}
		isFlappy := flappy[c.Addr.String()]
		if i < half && isFlappy {
			t.Errorf("flapping node %v ranked in the top half (score %.3f)", c.Addr, score)
		}
	}
}

func TestTreeStatsGlobalView(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	// util<50% tree members: i%20 in 0..9 → values {0, .05, ..., .45} × 2.
	var want float64
	count := 0
	for i := 0; i < 40; i++ {
		v := float64(i%20) / 20.0
		if v < 0.5 {
			want += v
			count++
		}
	}
	var got TreeStats
	fired := false
	err := fed.BySite["virginia"][3].TreeStats("util<50%", func(st TreeStats, err error) {
		if err != nil {
			t.Errorf("stats: %v", err)
			return
		}
		got, fired = st, true
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.RunFor(2 * time.Second)
	if !fired {
		t.Fatal("no stats answer")
	}
	if got.Count != int64(count) {
		t.Fatalf("count = %d, want %d", got.Count, count)
	}
	if diff := got.Mean() - want/float64(count); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean = %v, want %v", got.Mean(), want/float64(count))
	}
	// Boolean trees aggregate their truth count: mean of GPU tree is 1.
	fired = false
	fed.BySite["virginia"][5].TreeStats("GPU", func(st TreeStats, err error) {
		if err != nil {
			t.Errorf("gpu stats: %v", err)
			return
		}
		got, fired = st, true
	})
	fed.RunFor(2 * time.Second)
	if !fired || got.Count != 10 || got.Mean() != 1.0 {
		t.Fatalf("GPU stats = %+v (fired=%v)", got, fired)
	}
}

func TestPostResource(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 20)
	seller := fed.BySite["virginia"][13] // not a GPU node in the fixture
	err := seller.PostResource("GPU", true, `
		AA = {Password = "fee-paid"}
		function onGet(caller, password)
			if password == AA.Password then return NodeId end
			return nil
		end
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := seller.PostResource("mem_gb", 64.0, ""); err != nil {
		t.Fatal(err)
	}
	fed.RunFor(5 * time.Second) // membership pass + aggregation

	res := runQueryAs(t, fed, fed.BySite["virginia"][1],
		`SELECT * FROM virginia WHERE GPU = true GROUPBY mem_gb DESC;`, "joe", "fee-paid")
	found := false
	for _, c := range res.Candidates {
		if c.Addr == seller.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatalf("posted resource not discoverable: %d candidates", len(res.Candidates))
	}
	// Bad policy scripts are rejected at post time.
	if err := seller.PostResource("disk", 1.0, "("); err == nil {
		t.Fatal("malformed policy accepted")
	}
}
