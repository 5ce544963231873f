package core

import (
	"encoding/json"
	"testing"
	"time"

	"rbay/internal/transport"
)

// newObserveFed is newTestFed with an explicit node config and latency
// model, for tests that tune timeouts against the network's delay.
func newObserveFed(t *testing.T, sitesList []string, perSite int, cfg Config, lat transport.LatencyModel) *Federation {
	t.Helper()
	reg := testRegistry(t)
	fed, err := NewFederation(reg, FedConfig{
		Sites:        sitesList,
		NodesPerSite: perSite,
		Node:         cfg,
		Seed:         42,
		Latency:      lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range fed.BySite {
		for i, n := range ns {
			n.SetAttribute("GPU", i%4 == 0)
			n.SetAttribute("CPU_utilization", float64(i%20)/20.0)
		}
	}
	fed.Settle()
	return fed
}

// reservedCount counts the site's nodes currently holding an active
// reservation.
func reservedCount(fed *Federation, site string) int {
	held := 0
	for _, n := range fed.BySite[site] {
		if _, _, ok := n.Reserved(); ok {
			held++
		}
	}
	return held
}

// TestLateSiteResponseReleasesReservations reproduces the cross-site
// reservation leak: the origin's site-query timeout fires before the remote
// site's response arrives, so the response's candidates hold reservations
// nobody will ever commit or release. The fix releases them from
// the late path of handleSiteQueryResp; with ReserveTTL far above the test
// horizon, any leak is directly visible.
func TestLateSiteResponseReleasesReservations(t *testing.T) {
	cfg := fastConfig()
	cfg.SiteQueryTimeout = 1 * time.Second
	cfg.ReserveTTL = 30 * time.Second // a leak would outlive the whole test
	cfg.MaxAttempts = 1
	// Cross-site one-way delay 800ms: a remote round trip (~1.6s+) always
	// loses to the 1s site-query timeout; intra-site stays fast.
	lat := transport.LatencyFunc(func(from, to transport.Addr) time.Duration {
		if from.Site == to.Site {
			return time.Millisecond
		}
		return 800 * time.Millisecond
	})
	fed := newObserveFed(t, []string{"virginia", "tokyo"}, 8, cfg, lat)
	origin := fed.BySite["virginia"][1]

	res := runQuery(t, fed, origin, `SELECT * FROM * WHERE GPU = true;`)
	if res.Err == nil {
		t.Fatal("expected the cross-site leg to time out")
	}
	if got := origin.Metrics().Counter("rbay_site_query_timeouts_total"); got == 0 {
		t.Fatal("origin never recorded the site-query timeout")
	}

	// Let the late response arrive (~1.6s after send) and the release
	// messages cross back (~0.8s more).
	fed.RunFor(5 * time.Second)

	if got := origin.Metrics().Counter("rbay_site_query_late_responses_total"); got == 0 {
		t.Fatal("late response never reached the origin; test premise broken")
	}
	if got := origin.Metrics().Counter("rbay_reservations_released_late_total"); got == 0 {
		t.Fatal("late response carried no releasable candidates; test premise broken")
	}
	if held := reservedCount(fed, "tokyo"); held != 0 {
		t.Fatalf("%d tokyo reservation(s) leaked after the late response", held)
	}
}

// TestBackoffAccumulatesAcrossRounds drives a query into reservation
// conflicts so it needs multiple backoff rounds, then checks that the
// result's PerSite stats accumulate across rounds instead of reflecting
// only the last one, and that the trace records every round and wait.
func TestBackoffAccumulatesAcrossRounds(t *testing.T) {
	cfg := fastConfig()
	cfg.ReserveTTL = 1500 * time.Millisecond
	cfg.BackoffSlot = 100 * time.Millisecond
	cfg.MaxAttempts = 10
	fed := newObserveFed(t, []string{"virginia"}, 40, cfg, nil)
	blocker := fed.BySite["virginia"][3]
	customer := fed.BySite["virginia"][7]

	// Query A reserves every GPU node (10 of 40) and never commits.
	resA := runQuery(t, fed, blocker, `SELECT 10 FROM virginia WHERE GPU = true;`)
	if resA.Err != nil || len(resA.Candidates) != 10 {
		t.Fatalf("blocker query: %d candidates, err=%v", len(resA.Candidates), resA.Err)
	}

	// Query B collides in round 1, then fills once A's reservations expire.
	resB := runQuery(t, fed, customer, `SELECT 2 FROM virginia WHERE GPU = true;`)
	if resB.Err != nil {
		t.Fatalf("customer query err: %v", resB.Err)
	}
	if resB.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2 (no contention happened)", resB.Attempts)
	}
	if resB.Conflicts == 0 {
		t.Fatal("conflicts = 0, want > 0")
	}
	if resB.Shortfall != 0 || len(resB.Candidates) != 2 {
		t.Fatalf("shortfall=%d candidates=%d, want 0 and 2", resB.Shortfall, len(resB.Candidates))
	}

	st := resB.PerSite["virginia"]
	if st.Rounds != resB.Attempts {
		t.Errorf("PerSite rounds = %d, want %d (per-round stats were overwritten?)", st.Rounds, resB.Attempts)
	}
	if st.Conflicts != resB.Conflicts {
		t.Errorf("PerSite conflicts = %d, want %d accumulated", st.Conflicts, resB.Conflicts)
	}
	if st.Candidates < 2 {
		t.Errorf("PerSite candidates = %d, want ≥ 2", st.Candidates)
	}

	tr := resB.Trace
	if tr == nil {
		t.Fatal("no trace on result")
	}
	if got := len(tr.FindAll("round ")); got != resB.Attempts {
		t.Errorf("trace has %d round spans, want %d", got, resB.Attempts)
	}
	backoffs := tr.FindAll("backoff")
	if len(backoffs) != resB.Attempts-1 {
		t.Fatalf("trace has %d backoff spans, want %d", len(backoffs), resB.Attempts-1)
	}
	var waited time.Duration
	for _, b := range backoffs {
		waited += b.Duration()
	}
	if waited <= 0 {
		t.Error("backoff spans carry no virtual-time duration")
	}
	if got := customer.Metrics().Counter("rbay_backoff_waits_total"); got != uint64(resB.Attempts-1) {
		t.Errorf("rbay_backoff_waits_total = %d, want %d", got, resB.Attempts-1)
	}
}

// TestReleaseIsIdempotent checks the owner-side release: duplicate and
// mismatched releases are counted no-ops, never panics or state damage.
func TestReleaseIsIdempotent(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 4)
	n := fed.BySite["virginia"][0]

	if !n.reserve("q1") {
		t.Fatal("initial reserve failed")
	}
	n.applyLease(leaseEvent{kind: leaseRelease, queryID: "q1"})
	if _, _, ok := n.Reserved(); ok {
		t.Fatal("release did not free the node")
	}
	if got := n.Metrics().Counter("rbay_releases_total"); got != 1 {
		t.Fatalf("rbay_releases_total = %d, want 1", got)
	}

	// Duplicate release: counted no-op.
	n.applyLease(leaseEvent{kind: leaseRelease, queryID: "q1"})
	if got := n.Metrics().Counter("rbay_release_unknown_total"); got != 1 {
		t.Fatalf("rbay_release_unknown_total = %d, want 1", got)
	}

	// Mismatched release must not free another query's reservation.
	if !n.reserve("q2") {
		t.Fatal("re-reserve failed")
	}
	n.applyLease(leaseEvent{kind: leaseRelease, queryID: "q1"})
	if id, _, ok := n.Reserved(); !ok || id != "q2" {
		t.Fatalf("mismatched release broke the reservation: id=%q ok=%v", id, ok)
	}
	if got := n.Metrics().Counter("rbay_release_unknown_total"); got != 2 {
		t.Fatalf("rbay_release_unknown_total = %d, want 2", got)
	}
}

// TestQueryTraceSpans is the observability acceptance test: a federated
// query's trace must show the plan, each site's probe and anycast legs,
// and the merge, all with non-zero virtual-time durations, and survive a
// JSON round trip (the /debug/queries wire format).
func TestQueryTraceSpans(t *testing.T) {
	fed := newTestFed(t, []string{"virginia", "tokyo"}, 16)
	origin := fed.BySite["virginia"][5]

	res := runQuery(t, fed, origin, `SELECT 4 FROM * WHERE GPU = true;`)
	if res.Err != nil {
		t.Fatalf("query err: %v", res.Err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace on result")
	}
	if tr.Duration() <= 0 {
		t.Fatal("root span has no duration")
	}
	if tr.Find("plan") == nil {
		t.Error("trace missing plan span")
	}
	if tr.Find("merge") == nil {
		t.Error("trace missing merge span")
	}
	siteSpans := tr.FindAll("site ")
	if len(siteSpans) != 2 {
		t.Fatalf("trace has %d site spans, want 2:\n%s", len(siteSpans), tr.Render())
	}
	for _, s := range siteSpans {
		if s.Duration() <= 0 {
			t.Errorf("site span %q has zero duration", s.Name)
		}
		if len(s.FindAll("probe ")) == 0 {
			t.Errorf("site span %q has no probe children", s.Name)
		}
		ac := s.Find("anycast")
		if ac == nil {
			t.Errorf("site span %q has no anycast child", s.Name)
			continue
		}
		if ac.Duration() <= 0 {
			t.Errorf("anycast under %q has zero duration", s.Name)
		}
		if ac.Attrs["visits"] == "" || ac.Attrs["visits"] == "0" {
			t.Errorf("anycast under %q reports no visits", s.Name)
		}
	}
	probes := tr.FindAll("probe ")
	anyProbeDur := false
	for _, p := range probes {
		if p.Duration() > 0 {
			anyProbeDur = true
		}
	}
	if !anyProbeDur {
		t.Error("no probe span carries a non-zero duration")
	}

	// The record ring and wire format behind /debug/queries.
	recs := origin.RecentQueries()
	if len(recs) != 1 || recs[0].QueryID != res.QueryID || recs[0].Trace == nil {
		t.Fatalf("recent-query ring = %+v", recs)
	}
	data, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatalf("record does not marshal: %v", err)
	}
	if !json.Valid(data) {
		t.Fatal("record JSON invalid")
	}

	m := origin.Metrics()
	if m.Counter("rbay_queries_total") != 1 || m.Counter("rbay_queries_completed_total") != 1 {
		t.Errorf("query counters = %d/%d, want 1/1",
			m.Counter("rbay_queries_total"), m.Counter("rbay_queries_completed_total"))
	}
	if h := m.Histogram("rbay_query_latency_seconds"); h == nil {
		t.Error("rbay_query_latency_seconds never observed")
	}
}
