package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/query"
	"rbay/internal/transport"
)

// Materialized query views (paper §III-D's recurring-customer case): a Zql
// query registered once has its candidate set maintained incrementally by
// the trees instead of being re-planned and re-walked per execution. The
// registration multicasts down the planned tree; each member evaluates the
// view's predicates against its own attributes and pushes membership
// transitions (post, withdrawal, re-post, GROUPBY key change) point to
// point to the owner. The owner re-multicasts the registration every
// viewRefreshInterval — the keepalive that bounds staleness — and expires
// entries and subscriptions not re-confirmed within 3 × the interval.
//
// A view serve still honors reservations: the owner asks candidates to
// reserve themselves (re-checking predicates and onGet at that moment),
// walks further entries past conflicts, and — under ViewAuto — falls back
// to the ordinary probe/anycast round when the view cannot fill k.

// viewRefreshInterval is how often a node that owns materialized query
// views re-multicasts their registrations down the candidate trees, and
// the unit of the view staleness bound: entries not re-confirmed within
// 3 × this interval expire.
const viewRefreshInterval = 2 * time.Second

// ErrNoView is reported by ViewOnly queries whose canonical text matches
// no registered view on this node.
var ErrNoView = errors.New("core: no registered view matches the query")

// ViewMode selects how a query interacts with registered views.
type ViewMode int

const (
	// ViewAuto serves from a matching view when one is registered, falling
	// back to the tree walk when the view cannot fill the request.
	ViewAuto ViewMode = iota
	// ViewOnly serves exclusively from a matching view and fails with
	// ErrNoView when none is registered; shortfalls are returned, never
	// topped up by a tree walk.
	ViewOnly
	// ViewSkip ignores views and always walks the trees.
	ViewSkip
)

// ParseViewMode maps the external spellings ("auto", "only", "skip"; ""
// means auto) used by the HTTP gateway and the ops engine.
func ParseViewMode(s string) (ViewMode, error) {
	switch s {
	case "", "auto":
		return ViewAuto, nil
	case "only", "1":
		return ViewOnly, nil
	case "skip", "0", "off":
		return ViewSkip, nil
	}
	return ViewAuto, fmt.Errorf("core: unknown view mode %q", s)
}

// ViewInfo is one view's externally visible state (GET /views).
type ViewInfo struct {
	Key         string        `json:"key"`
	Entries     int           `json:"entries"`
	Created     time.Time     `json:"created"`
	LastRefresh time.Time     `json:"lastRefresh"`
	Staleness   time.Duration `json:"stalenessNanos"`
	Refreshes   uint64        `json:"refreshes"`
	Updates     uint64        `json:"updates"`
	Served      uint64        `json:"served"`
	Fallbacks   uint64        `json:"fallbacks"`
}

// viewEntry is one candidate the view currently materializes.
type viewEntry struct {
	cand   Candidate
	seenAt time.Time
}

// viewState is a view owned by this node.
type viewState struct {
	q        *query.Query
	key      string
	treeAttr string // the planned tree's attribute, for onGet at reserve time
	created  time.Time

	entries     map[transport.Addr]*viewEntry
	lastRefresh time.Time

	refreshes uint64
	updates   uint64
	served    uint64
	fallbacks uint64
}

// viewSub is a view this node feeds as a tree member.
type viewSub struct {
	key      string
	owner    pastry.Entry
	preds    []naming.Pred
	orderBy  string
	matching bool
	lastReg  time.Time
}

func subKey(owner transport.Addr, key string) string {
	return owner.String() + "\x00" + key
}

// ---------------------------------------------------------------------------
// View messages

// viewRegMsg multicasts a view's registration (or drop) down the planned
// tree; every member (re-)evaluates the predicates locally.
type viewRegMsg struct {
	Key      string
	Owner    pastry.Entry
	Preds    []naming.Pred
	OrderBy  string
	TreeAttr string
	Drop     bool
}

// viewSiteReg carries a registration to a remote site's router, which
// re-multicasts it down the site-local tree.
type viewSiteReg struct {
	Reg viewRegMsg
}

// viewUpdateMsg pushes one member's view-membership transition to the
// owner: Match true carries the (possibly re-keyed) candidate, false
// removes it.
type viewUpdateMsg struct {
	Key    string
	Member pastry.Entry
	Match  bool
	Cand   Candidate
}

// viewReserveReq asks a view candidate to reserve itself for a query,
// re-checking predicates and onGet at serve time.
type viewReserveReq struct {
	ReqID    uint64
	QueryID  string
	Key      string
	Preds    []naming.Pred
	OrderBy  string
	TreeAttr string
	Caller   string
	Payload  any
	Origin   pastry.Entry
}

// viewReserveResp answers a viewReserveReq. Neither OK nor Conflict set
// means the candidate no longer matches (or denied the caller).
type viewReserveResp struct {
	ReqID    uint64
	QueryID  string
	OK       bool
	Conflict bool
	Cand     Candidate
}

// ---------------------------------------------------------------------------
// Owner surface

// RegisterView materializes the query as a view on this node: the planner
// will serve executions of the same (canonical) query from the view's
// candidate set. Registering an already-registered query is a no-op.
func (n *Node) RegisterView(q *query.Query) error {
	if len(q.Preds) == 0 {
		return ErrNoPlan
	}
	def, _ := n.reg.PlanPredicate(q.Preds[0])
	if def == nil {
		return ErrNoPlan
	}
	key := q.String()
	if n.views[key] != nil {
		return nil
	}
	v := &viewState{
		q:        q,
		key:      key,
		treeAttr: def.Pred.Attr,
		created:  n.Now(),
		entries:  make(map[transport.Addr]*viewEntry),
	}
	n.views[key] = v
	n.metrics.Inc("rbay_views_registered_total")
	n.refreshView(v)
	return nil
}

// DropView removes a view and tells its members to stop feeding it,
// reporting whether the key named a registered view.
func (n *Node) DropView(key string) bool {
	v := n.views[key]
	if v == nil {
		return false
	}
	delete(n.views, key)
	n.broadcastViewReg(v, true)
	n.metrics.Inc("rbay_views_dropped_total")
	return true
}

// Views lists this node's views in key order.
func (n *Node) Views() []ViewInfo {
	now := n.Now()
	out := make([]ViewInfo, 0, len(n.views))
	for _, key := range sortedKeys(n.views) {
		v := n.views[key]
		out = append(out, ViewInfo{
			Key:         v.key,
			Entries:     len(v.entries),
			Created:     v.created,
			LastRefresh: v.lastRefresh,
			Staleness:   now.Sub(v.lastRefresh),
			Refreshes:   v.refreshes,
			Updates:     v.updates,
			Served:      v.served,
			Fallbacks:   v.fallbacks,
		})
	}
	return out
}

// sortedKeys orders a view map's keys for a deterministic send order
// under the simulator.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refreshView re-multicasts the view's registration — the keepalive that
// re-confirms the candidate set and bounds its staleness — and prunes
// entries whose members went silent.
func (n *Node) refreshView(v *viewState) {
	now := n.Now()
	v.lastRefresh = now
	v.refreshes++
	ttl := 3 * viewRefreshInterval
	for a, e := range v.entries {
		if now.Sub(e.seenAt) > ttl {
			delete(v.entries, a)
		}
	}
	n.broadcastViewReg(v, false)
}

func (n *Node) broadcastViewReg(v *viewState, drop bool) {
	reg := viewRegMsg{
		Key:      v.key,
		Owner:    n.p.Self(),
		Preds:    v.q.Preds,
		OrderBy:  v.q.OrderBy,
		TreeAttr: v.treeAttr,
		Drop:     drop,
	}
	for _, site := range targetSitesFor(n, v.q) {
		if site == n.Site() {
			n.multicastViewReg(reg)
			continue
		}
		for _, router := range n.dir.Routers[site] {
			if err := n.p.SendApp(router, AppName, viewSiteReg{Reg: reg}); err == nil {
				break
			}
		}
	}
}

// multicastViewReg sends a registration down this site's planned tree.
func (n *Node) multicastViewReg(reg viewRegMsg) {
	def, _ := n.reg.PlanPredicate(reg.Preds[0])
	if def == nil {
		return
	}
	topic := n.reg.TopicFor(n.Site(), def)
	_ = n.s.Multicast(n.Site(), topic, reg)
}

// relayViewReg is the remote router half of broadcastViewReg.
func (n *Node) relayViewReg(sr viewSiteReg) {
	if len(sr.Reg.Preds) == 0 {
		return
	}
	n.multicastViewReg(sr.Reg)
}

// targetSitesFor resolves a query's FROM clause against the directory
// (shared by query runs and view registration).
func targetSitesFor(n *Node, q *query.Query) []string {
	if len(q.Sites) > 0 {
		return q.Sites
	}
	if len(n.dir.Sites) > 0 {
		return n.dir.Sites
	}
	return []string{n.Site()}
}

// handleViewUpdate applies one member's membership transition.
func (n *Node) handleViewUpdate(u viewUpdateMsg) {
	v := n.views[u.Key]
	if v == nil {
		return // dropped view; the member's sub expires on its own
	}
	v.updates++
	n.metrics.Inc("rbay_view_updates_total")
	if u.Match {
		v.entries[u.Cand.Addr] = &viewEntry{cand: u.Cand, seenAt: n.Now()}
	} else {
		delete(v.entries, u.Member.Addr)
	}
}

// viewMaintenance runs on the membership tick: refresh owned views on
// their interval and expire subscriptions whose owner went silent.
func (n *Node) viewMaintenance() {
	if len(n.views) == 0 && len(n.viewSubs) == 0 {
		return
	}
	now := n.Now()
	for _, key := range sortedKeys(n.views) {
		v := n.views[key]
		if now.Sub(v.lastRefresh) >= viewRefreshInterval {
			n.refreshView(v)
		}
	}
	ttl := 3 * viewRefreshInterval
	for k, sub := range n.viewSubs {
		if now.Sub(sub.lastReg) > ttl {
			delete(n.viewSubs, k)
		}
	}
}

// ---------------------------------------------------------------------------
// Member surface

// handleViewReg installs or refreshes a view subscription on a tree
// member and (re-)pushes the member's current match state.
func (n *Node) handleViewReg(reg viewRegMsg) {
	k := subKey(reg.Owner.Addr, reg.Key)
	if reg.Drop {
		delete(n.viewSubs, k)
		return
	}
	sub := n.viewSubs[k]
	if sub == nil {
		sub = &viewSub{key: reg.Key, owner: reg.Owner, preds: reg.Preds, orderBy: reg.OrderBy}
		n.viewSubs[k] = sub
	}
	sub.lastReg = n.Now()
	n.evalViewSub(sub, true)
}

// viewsAttrChanged re-evaluates every subscription that predicates or
// orders over a changed attribute; matches (and GROUPBY key changes)
// push incrementally to the owner. An apply batch passes all its names,
// and each subscription is re-evaluated at most once however many of
// its attributes changed. That equals one pass per write after the batch
// landed, because evalViewSub recomputes from current attribute state.
func (n *Node) viewsAttrChanged(names ...string) {
	if len(n.viewSubs) == 0 || len(names) == 0 {
		return
	}
	for _, k := range sortedKeys(n.viewSubs) {
		sub := n.viewSubs[k]
		for _, name := range names {
			if subWatches(sub, name) {
				n.evalViewSub(sub, true)
				break
			}
		}
	}
}

// subWatches reports whether the subscription predicates or orders over
// the attribute.
func subWatches(sub *viewSub, name string) bool {
	if sub.orderBy == name || strings.TrimPrefix(sub.orderBy, StabilityPrefix) == name {
		return true
	}
	for _, p := range sub.preds {
		if p.Attr == name {
			return true
		}
	}
	return false
}

// evalViewSub recomputes the member's match state; transitions — and,
// with resend, confirmations of a standing match — push to the owner.
func (n *Node) evalViewSub(sub *viewSub, resend bool) {
	match := true
	for _, p := range sub.preds {
		v, ok := n.am.Get(p.Attr)
		if !ok || !p.Eval(v) {
			match = false
			break
		}
	}
	if match == sub.matching && !(match && resend) {
		return
	}
	sub.matching = match
	u := viewUpdateMsg{Key: sub.key, Member: n.p.Self(), Match: match}
	if match {
		u.Cand = Candidate{
			NodeID:  n.Addr().String(),
			Addr:    n.Addr(),
			Site:    n.Site(),
			SortKey: n.sortKey(sub.orderBy),
		}
	}
	if sub.owner.ID == n.p.ID() {
		n.handleViewUpdate(u)
		return
	}
	_ = n.p.SendApp(sub.owner.Addr, AppName, u)
}

// serveViewReserve re-checks a view candidate at serve time, through the
// same gates and claim as an anycast visit.
func (n *Node) serveViewReserve(req viewReserveReq) viewReserveResp {
	n.metrics.Inc("rbay_view_visits_total")
	resp := viewReserveResp{ReqID: req.ReqID, QueryID: req.QueryID}
	if exposed, ok := n.authorize(req.Preds, req.TreeAttr, req.Caller, req.Payload); ok {
		resp.Cand, resp.OK = n.claim(exposed, req.QueryID, req.OrderBy)
		resp.Conflict = !resp.OK
	}
	return resp
}

// viewReserve round-trips one reserve request, delivering the response
// asynchronously on the node's event context (including the self-target
// and send-failure paths, so the caller's fan-out loop never re-enters).
func (n *Node) viewReserve(v *viewState, r *queryRun, c Candidate, cb func(viewReserveResp)) {
	req := viewReserveReq{
		QueryID:  r.id,
		Key:      v.key,
		Preds:    r.q.Preds,
		OrderBy:  r.q.OrderBy,
		TreeAttr: v.treeAttr,
		Caller:   r.caller,
		Payload:  r.payload,
		Origin:   n.p.Self(),
	}
	if c.Addr == n.Addr() {
		n.p.After(0, func() { cb(n.serveViewReserve(req)) })
		return
	}
	req.ReqID = n.p.Await(n.cfg.SiteQueryTimeout, viewReserveResp{}, func(reply any, err error) {
		switch {
		case errors.Is(err, pastry.ErrTimeout):
			n.metrics.Inc("rbay_view_reserve_timeouts_total")
			cb(viewReserveResp{QueryID: r.id})
		case err != nil:
			delete(v.entries, c.Addr) // unreachable member: drop the entry now
			n.p.After(0, func() { cb(viewReserveResp{QueryID: r.id}) })
		default:
			cb(reply.(viewReserveResp))
		}
	})
	if err := n.p.SendApp(c.Addr, AppName, req); err != nil {
		n.p.Settle(req.ReqID, nil, err)
	}
}

func (n *Node) handleViewReserveResp(resp viewReserveResp, boxed any) {
	// A late response after our timeout: the member reserved itself for a
	// fan-out that has moved on. Unwind the lock instead of letting it sit
	// until TTL expiry.
	if !n.p.Settle(resp.ReqID, boxed, nil) && resp.OK && resp.QueryID != "" {
		n.Release(resp.QueryID, []Candidate{resp.Cand})
	}
}

// ---------------------------------------------------------------------------
// Planner fast path

// serveFromView fills the query from the view's materialized candidate
// set: reserve the best-ordered entries, walk past conflicts, and — under
// ViewAuto — top up with an ordinary round when the view falls short.
func (r *queryRun) serveFromView(v *viewState) {
	n := r.n
	now := n.Now()
	v.served++
	n.metrics.Inc("rbay_view_served_total")
	staleness := now.Sub(v.lastRefresh)
	n.metrics.Observe("rbay_view_staleness_seconds", staleness)
	span := r.root.Child("view", now)
	span.Set("key", v.key)
	span.Set("staleness", staleness.String())
	span.SetInt("entries", len(v.entries))

	cands := make([]Candidate, 0, len(v.entries))
	for _, e := range v.entries {
		cands = append(cands, e.cand)
	}
	sortCandidates(cands, r.q.OrderBy != "" && r.q.Desc)

	need := r.q.K
	if need <= 0 {
		need = len(cands) // SELECT *: take the whole candidate set
	}
	idx, pending, got := 0, 0, 0
	var launch func()
	onResp := func(resp viewReserveResp) {
		pending--
		if resp.OK {
			got++
			r.acc[resp.Cand.Addr] = resp.Cand
		} else if resp.Conflict {
			r.conflicts++
		}
		launch()
	}
	launch = func() {
		for got+pending < need && idx < len(cands) {
			c := cands[idx]
			idx++
			pending++
			n.viewReserve(v, r, c, onResp)
		}
		if pending > 0 {
			return
		}
		span.SetInt("reserved", got)
		span.SetInt("conflicts", r.conflicts)
		span.Finish(n.Now())
		if r.q.K > 0 && len(r.acc) < r.q.K && r.viewMode != ViewOnly {
			// The view could not fill k (stale entries, conflicts, or a
			// thin candidate set): fall back to the tree walk for the rest.
			v.fallbacks++
			n.metrics.Inc("rbay_view_fallbacks_total")
			span.Set("fallback", "true")
			r.round()
			return
		}
		r.finish(nil)
	}
	launch()
}
