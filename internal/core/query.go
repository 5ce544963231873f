package core

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"time"

	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/query"
	"rbay/internal/scribe"
	"rbay/internal/trace"
	"rbay/internal/transport"
)

// ErrNoPlan is reported when no query predicate maps to any registered
// tree: RBAY has no candidate generator and refuses to flood the overlay.
var ErrNoPlan = errors.New("core: no predicate matches a registered tree")

// ErrNoRouter is reported when a target site has no reachable router.
var ErrNoRouter = errors.New("core: no reachable router for site")

// ErrSiteTimeout is reported when a target site did not answer in time.
var ErrSiteTimeout = errors.New("site query timed out")

// QueryResult is the outcome of a composite query.
type QueryResult struct {
	QueryID    string
	Candidates []Candidate
	// Shortfall is how many of the requested k could not be found.
	Shortfall int
	// Attempts counts query rounds (1 = no backoff was needed).
	Attempts int
	// Conflicts counts matching-but-reserved nodes observed across rounds.
	Conflicts int
	// Elapsed is wall (virtual) time from Query to callback.
	Elapsed time.Duration
	// PerSite records each queried site's contribution accumulated over
	// every round of the query (not just the last one).
	PerSite map[string]SiteStats
	// Trace is the query's span tree: plan, per-round fan-outs, per-site
	// probes and anycasts, backoff waits, and the final merge.
	Trace *trace.Span
	Err   error
}

// SiteStats summarizes one site's contribution to a query, accumulated
// across all backoff rounds.
type SiteStats struct {
	// Candidates counts distinct candidates this site contributed to the
	// query's merged result set.
	Candidates int
	// Conflicts counts matching-but-reserved members the site reported,
	// summed over rounds.
	Conflicts int
	// Rounds counts how many rounds queried the site.
	Rounds int
	// TreeSize is the probed size of the searched tree (latest round).
	TreeSize int64
	// Err is the site's error from the latest round ("" when it answered).
	Err string
}

// queryRun tracks a multi-round query execution at its query interface.
type queryRun struct {
	n        *Node
	q        *query.Query
	caller   string
	payload  any
	id       string
	started  time.Time
	attempt  int
	viewMode ViewMode

	acc       map[transport.Addr]Candidate
	conflicts int
	perSite   map[string]SiteStats
	root      *trace.Span
	cb        func(QueryResult)
}

// Query resolves a composite query through this node's query interface:
// plan → per-site probe+anycast (in parallel across sites) → merge →
// backoff re-query on shortfall (paper Fig. 7 plus §III-D's truncated
// exponential backoff). cb fires exactly once.
func (n *Node) Query(q *query.Query, cb func(QueryResult)) {
	n.QueryAs(q, n.Addr().String(), nil, cb)
}

// QueryAs is Query with an explicit caller identity and an opaque payload
// passed to every onGet handler (password, access level, …).
func (n *Node) QueryAs(q *query.Query, caller string, payload any, cb func(QueryResult)) {
	n.QueryVia(q, caller, payload, ViewAuto, cb)
}

// QueryVia is QueryAs with an explicit view mode: the planner serves a
// query whose canonical text matches a registered materialized view from
// the view's candidate set (ViewAuto), exclusively from it (ViewOnly —
// errors when no view matches, never walks a tree), or never (ViewSkip).
func (n *Node) QueryVia(q *query.Query, caller string, payload any, mode ViewMode, cb func(QueryResult)) {
	n.nextQuery++
	now := n.Now()
	run := &queryRun{
		n:        n,
		q:        q,
		caller:   caller,
		payload:  payload,
		id:       n.idPrefix + strconv.FormatUint(n.nextQuery, 10),
		started:  now,
		viewMode: mode,
		acc:      make(map[transport.Addr]Candidate),
		perSite:  make(map[string]SiteStats),
		root:     trace.New("query", now),
		cb:       cb,
	}
	run.root.Set("id", run.id)
	run.root.Set("caller", caller)
	run.root.SetInt("k", q.K)
	n.metrics.Inc("rbay_queries_total")
	if len(q.Preds) == 0 {
		run.finish(ErrNoPlan)
		return
	}
	if mode != ViewSkip {
		if v := n.views[q.String()]; v != nil {
			run.serveFromView(v)
			return
		}
		if mode == ViewOnly {
			run.finish(ErrNoView)
			return
		}
	}
	plan := run.root.Child("plan", now)
	sites := targetSitesFor(n, q)
	plan.SetInt("preds", len(q.Preds))
	plan.SetInt("sites", len(sites))
	plan.Set("targets", strings.Join(sites, " "))
	plan.Finish(n.Now())
	run.round()
}

// round runs one fan-out across all target sites.
func (r *queryRun) round() {
	r.attempt++
	sites := targetSitesFor(r.n, r.q)
	need := r.q.K
	if need > 0 {
		need -= len(r.acc)
	}
	roundSpan := r.root.Child("round "+strconv.Itoa(r.attempt), r.n.Now())
	roundSpan.SetInt("need", need)
	pendingSites := len(sites)
	roundNew, roundConflicts := 0, 0
	anyErr := error(nil)
	oneDone := func(site string, span *trace.Span, resp siteQueryResp) {
		now := r.n.Now()
		span.Finish(now)
		r.n.metrics.Observe("rbay_site_query_latency_seconds", span.Duration())
		// Accumulate per-site stats across rounds: a backoff re-query must
		// add to the site's tally, not overwrite it (the whole query's
		// PerSite is what experiments read).
		st := r.perSite[site]
		newCands := 0
		for _, c := range resp.Candidates {
			if _, dup := r.acc[c.Addr]; !dup {
				newCands++
				r.acc[c.Addr] = c
			}
		}
		st.Candidates += newCands
		st.Conflicts += resp.Conflicts
		st.Rounds++
		if resp.Err == "" {
			st.TreeSize = resp.TreeSize
		}
		st.Err = resp.Err
		r.perSite[site] = st
		r.conflicts += resp.Conflicts
		roundNew += newCands
		roundConflicts += resp.Conflicts
		annotateSiteSpan(span, resp, newCands)
		if resp.Err != "" && anyErr == nil {
			anyErr = errors.New(resp.Err)
			if resp.Err == ErrSiteTimeout.Error() {
				anyErr = ErrSiteTimeout
			}
		}
		pendingSites--
		if pendingSites == 0 {
			roundSpan.SetInt("new", roundNew)
			roundSpan.SetInt("conflicts", roundConflicts)
			roundSpan.Finish(r.n.Now())
			r.roundDone(anyErr)
		}
	}
	// Nodes already held by this query (view serves, earlier rounds) are
	// excluded from the walk's slot buffer: they would only duplicate what
	// the origin has accumulated.
	var exclude []transport.Addr
	if len(r.acc) > 0 {
		exclude = make([]transport.Addr, 0, len(r.acc))
		for a := range r.acc {
			exclude = append(exclude, a)
		}
	}
	for _, site := range sites {
		site := site
		span := roundSpan.Child("site "+site, r.n.Now())
		req := siteQueryReq{
			QueryID: r.id,
			K:       need,
			Preds:   r.q.Preds,
			OrderBy: r.q.OrderBy,
			Caller:  r.caller,
			Payload: r.payload,
			Origin:  r.n.p.Self(),
			Exclude: exclude,
		}
		r.n.siteQuery(site, req, func(resp siteQueryResp) { oneDone(site, span, resp) })
	}
}

// annotateSiteSpan records a site response's observability payload under
// the site span: one child per tree probe plus the anycast walk. Remote
// durations were measured on the serving site's clock; they are
// re-anchored at the site span's start, preserving length.
func annotateSiteSpan(span *trace.Span, resp siteQueryResp, newCands int) {
	span.SetInt("candidates", len(resp.Candidates))
	span.SetInt("new", newCands)
	span.SetInt("conflicts", resp.Conflicts)
	span.SetInt64("treeSize", resp.TreeSize)
	if resp.Err != "" {
		span.Set("err", resp.Err)
	}
	for _, p := range resp.Probes {
		ps := trace.New("probe "+p.Tree, span.Start)
		ps.FinishDur(time.Duration(p.Nanos))
		ps.SetInt64("size", p.Size)
		if p.Missing {
			ps.Set("missing", "true")
		}
		span.AddChild(ps)
	}
	if resp.AnycastNanos > 0 || resp.Visits > 0 {
		as := trace.New("anycast", span.Start)
		as.FinishDur(time.Duration(resp.AnycastNanos))
		as.SetInt("visits", resp.Visits)
		as.SetInt("hops", resp.Hops)
		span.AddChild(as)
	}
}

func (r *queryRun) roundDone(roundErr error) {
	k := r.q.K
	short := 0
	if k > 0 {
		short = k - len(r.acc)
	}
	if short > 0 && r.attempt < r.n.cfg.MaxAttempts && r.conflicts > 0 {
		// Truncated exponential backoff: after c failures wait a random
		// number of slot times in [0, 2^c - 1] (paper §III-D).
		c := r.attempt
		if c > backoffCap {
			c = backoffCap
		}
		slots := r.n.rng.Int63n(1 << uint(c))
		wait := time.Duration(slots) * r.n.cfg.BackoffSlot
		span := r.root.Child("backoff", r.n.Now())
		span.SetInt("attempt", r.attempt)
		span.SetInt64("slots", slots)
		r.n.metrics.Inc("rbay_backoff_waits_total")
		r.n.metrics.Observe("rbay_backoff_wait_seconds", wait)
		r.n.p.After(wait, func() {
			span.Finish(r.n.Now())
			r.round()
		})
		return
	}
	r.finish(roundErr)
}

func (r *queryRun) finish(err error) {
	now := r.n.Now()
	res := QueryResult{
		QueryID:   r.id,
		Attempts:  r.attempt,
		Conflicts: r.conflicts,
		PerSite:   r.perSite,
		Elapsed:   now.Sub(r.started),
		Trace:     r.root,
		Err:       err,
	}
	if r.attempt == 0 {
		res.Attempts = 1
	}
	merge := r.root.Child("merge", now)
	cands := make([]Candidate, 0, len(r.acc))
	for _, c := range r.acc {
		cands = append(cands, c)
	}
	sortCandidates(cands, r.q.OrderBy != "" && r.q.Desc)
	if k := r.q.K; k > 0 {
		if len(cands) > k {
			// Release the surplus reservations. The owner-side release is
			// idempotent (see leaseReq), so a node that was trimmed in
			// an earlier round and re-collected is safe to release again.
			merge.SetInt("released", len(cands)-k)
			r.n.metrics.Add("rbay_surplus_released_total", uint64(len(cands)-k))
			r.n.Release(r.id, cands[k:])
			cands = cands[:k]
		}
		res.Shortfall = k - len(cands)
		if res.Shortfall < 0 {
			res.Shortfall = 0
		}
	}
	res.Candidates = cands
	merge.SetInt("returned", len(cands))
	merge.SetInt("shortfall", res.Shortfall)
	merge.Finish(r.n.Now())
	r.root.SetInt("attempts", res.Attempts)
	if err != nil {
		r.root.Set("err", err.Error())
	}
	r.root.Finish(r.n.Now())

	m := r.n.metrics
	m.Inc("rbay_queries_completed_total")
	if err != nil {
		m.Inc("rbay_query_errors_total")
	}
	m.Observe("rbay_query_latency_seconds", res.Elapsed)
	m.ObserveInt("rbay_query_rounds", res.Attempts)
	m.Add("rbay_query_conflicts_total", uint64(res.Conflicts))
	m.Add("rbay_query_shortfall_total", uint64(res.Shortfall))
	r.n.recordQuery(r, res)
	if r.n.g.open() {
		r.cb(res)
		return
	}
	r.deliverWhenDurable(res)
}

// deliverWhenDurable holds the result behind the gate: a candidate may be
// this node itself, reserved by a record that is still in flight, and the
// caller hears of it only once that record is durable. (Its own function
// so the closure does not make every query's result escape.)
func (r *queryRun) deliverWhenDurable(res QueryResult) {
	r.n.AfterDurable(func(err error) {
		if err != nil {
			res.Err = err
		}
		r.cb(res)
	})
}

// sortCandidates orders by SortKey (numbers, then strings), then by
// address for determinism.
func sortCandidates(cs []Candidate, desc bool) {
	less := func(i, j int) bool {
		a, b := cs[i], cs[j]
		la, lb := sortRank(a.SortKey), sortRank(b.SortKey)
		if la != lb {
			return la < lb
		}
		switch x := a.SortKey.(type) {
		case float64:
			y := b.SortKey.(float64)
			if x != y {
				return x < y
			}
		case string:
			y := b.SortKey.(string)
			if x != y {
				return x < y
			}
		}
		if a.Addr.Site != b.Addr.Site {
			return a.Addr.Site < b.Addr.Site
		}
		return a.Addr.Host < b.Addr.Host
	}
	if desc {
		sort.Slice(cs, func(i, j int) bool { return less(j, i) })
	} else {
		sort.Slice(cs, less)
	}
}

func sortRank(v any) int {
	switch v.(type) {
	case float64:
		return 0
	case string:
		return 1
	default:
		return 2
	}
}

// Commit leases the given candidates to the query (the customer "takes"
// the resources).
func (n *Node) Commit(queryID string, cands []Candidate) {
	n.metrics.Add("rbay_commits_sent_total", uint64(len(cands)))
	for _, c := range cands {
		_ = n.p.SendApp(c.Addr, AppName, commitReq{QueryID: queryID})
	}
}

// Release frees candidates' reservations or leases early, unacked: the
// surplus trim and late-response cleanup use it too. ReleaseAcked confirms.
func (n *Node) Release(queryID string, cands []Candidate) {
	n.metrics.Add("rbay_releases_sent_total", uint64(len(cands)))
	for _, c := range cands {
		_ = n.p.SendApp(c.Addr, AppName, releaseReq{QueryID: queryID})
	}
}

// ---------------------------------------------------------------------------
// Cross-site dispatch

// siteQuery runs req in the target site: locally when it is our own site,
// otherwise through one of the site's boundary routers.
func (n *Node) siteQuery(site string, req siteQueryReq, cb func(siteQueryResp)) {
	if site == n.Site() {
		n.metrics.Inc("rbay_site_queries_served_total")
		n.runSiteQuery(req, cb)
		return
	}
	req.ReqID = n.p.Await(n.cfg.SiteQueryTimeout, siteQueryResp{}, func(reply any, err error) {
		switch {
		case errors.Is(err, pastry.ErrTimeout):
			n.metrics.Inc("rbay_site_query_timeouts_total")
			cb(siteQueryResp{Site: site, Err: ErrSiteTimeout.Error()})
		case err != nil:
			cb(siteQueryResp{Site: site, Err: err.Error() + " " + site})
		default:
			cb(reply.(siteQueryResp))
		}
	})
	for _, router := range n.dir.Routers[site] {
		if err := n.p.SendApp(router, AppName, req); err == nil {
			return
		}
	}
	n.p.Settle(req.ReqID, nil, ErrNoRouter)
}

func (n *Node) handleSiteQueryResp(resp siteQueryResp, boxed any) {
	if n.p.Settle(resp.ReqID, boxed, nil) {
		return
	}
	// Late response: the request already timed out here, but the remote
	// site reserved these candidates on our behalf. Release them now
	// instead of leaving them locked until lease expiry.
	n.metrics.Inc("rbay_site_query_late_responses_total")
	if resp.QueryID != "" {
		n.metrics.Add("rbay_reservations_released_late_total", uint64(len(resp.Candidates)))
		n.Release(resp.QueryID, resp.Candidates)
	}
}

// serveSiteQuery runs a remote origin's sub-query inside this site and
// replies directly.
func (n *Node) serveSiteQuery(req siteQueryReq) {
	n.metrics.Inc("rbay_site_queries_served_total")
	n.runSiteQuery(req, func(resp siteQueryResp) {
		resp.ReqID = req.ReqID
		_ = n.p.SendApp(req.Origin.Addr, AppName, resp)
	})
}

// runSiteQuery implements the paper's five steps within one site:
// probe the candidate trees' sizes, anycast the smaller tree with a k-slot
// buffer, and return the filled slots. Every response path stamps the
// originating QueryID so even a response that arrives after the origin
// timed out can be unwound.
func (n *Node) runSiteQuery(req siteQueryReq, cb0 func(siteQueryResp)) {
	site := n.Site()
	cb := func(r siteQueryResp) {
		r.QueryID = req.QueryID
		cb0(r)
	}
	// Step 0 (planning): map predicates to registered trees. The dedup map
	// is only needed for multi-predicate queries; the common single-pred
	// case stays allocation-light.
	var defs []*naming.TreeDef
	var seen map[string]bool
	if len(req.Preds) > 1 {
		seen = make(map[string]bool, len(req.Preds))
	}
	for _, p := range req.Preds {
		def, _ := n.reg.PlanPredicate(p)
		if def == nil {
			continue
		}
		if seen != nil {
			if seen[def.Name] {
				continue
			}
			seen[def.Name] = true
		}
		defs = append(defs, def)
	}
	if len(defs) == 0 {
		cb(siteQueryResp{Site: site, Err: ErrNoPlan.Error()})
		return
	}

	// Steps 1-2: probe each tree's size via its root's aggregate. The probe
	// records double as the size/missing inputs to tree selection.
	probeStart := n.Now()
	probes := make([]treeProbe, len(defs))
	pending := len(defs)
	oneProbe := func(i int) func(v any, err error) {
		return func(v any, err error) {
			probes[i] = treeProbe{Tree: defs[i].Name, Nanos: int64(n.Now().Sub(probeStart))}
			if err != nil {
				probes[i].Missing = true
			} else if st, ok := v.(TreeStats); ok {
				probes[i].Size = st.Count
			}
			n.metrics.Observe("rbay_probe_latency_seconds", time.Duration(probes[i].Nanos))
			pending--
			if pending == 0 {
				n.anycastSmallest(req, defs, probes, cb)
			}
		}
	}
	for i, def := range defs {
		topic := n.reg.TopicFor(site, def)
		if err := n.s.QueryAggregate(site, topic, oneProbe(i)); err != nil {
			oneProbe(i)(nil, err)
		}
	}
}

// anycastSmallest executes steps 3-5: DFS the smallest candidate tree.
func (n *Node) anycastSmallest(req siteQueryReq, defs []*naming.TreeDef, probes []treeProbe, cb func(siteQueryResp)) {
	site := n.Site()
	best := -1
	for i := range defs {
		if probes[i].Missing {
			continue
		}
		if best < 0 || probes[i].Size < probes[best].Size {
			best = i
		}
	}
	if best < 0 {
		// Every planned tree is absent in this site: no candidates here.
		cb(siteQueryResp{Site: site, Probes: probes})
		return
	}
	bestSize := probes[best].Size
	if bestSize == 0 {
		cb(siteQueryResp{Site: site, TreeSize: 0, Probes: probes})
		return
	}
	def := defs[best]
	visit := queryVisit{
		QueryID:  req.QueryID,
		K:        req.K,
		Preds:    req.Preds,
		OrderBy:  req.OrderBy,
		TreeAttr: def.Pred.Attr,
		Caller:   req.Caller,
		Payload:  req.Payload,
		Exclude:  req.Exclude,
	}
	topic := n.reg.TopicFor(site, def)
	anycastStart := n.Now()
	err := n.s.Anycast(site, topic, visit, func(res scribe.AnycastResult) {
		elapsed := n.Now().Sub(anycastStart)
		n.metrics.Observe("rbay_anycast_latency_seconds", elapsed)
		if res.Err != nil {
			cb(siteQueryResp{Site: site, TreeSize: bestSize, Err: res.Err.Error(), Probes: probes, AnycastNanos: int64(elapsed)})
			return
		}
		out, _ := res.Payload.(queryVisit)
		cb(siteQueryResp{
			Site:         site,
			Candidates:   out.Slots,
			Conflicts:    out.Conflicts,
			TreeSize:     bestSize,
			Probes:       probes,
			AnycastNanos: int64(elapsed),
			Visits:       res.Visits,
			Hops:         res.Hops,
		})
	})
	if err != nil {
		cb(siteQueryResp{Site: site, TreeSize: bestSize, Err: err.Error(), Probes: probes})
	}
}
