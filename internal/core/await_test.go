package core

import (
	"reflect"
	"testing"
	"time"

	"rbay/internal/query"
	"rbay/internal/transport"
)

// awaitFed is a two-site federation whose links to and from origin can be
// switched slow: 800 ms one way, so any round trip origin starts loses to
// the 1 s SiteQueryTimeout and its reply arrives late. ReserveTTL is far
// above the test horizon: a reservation nobody unwinds stays visible.
func awaitFed(t *testing.T) (fed *Federation, origin *Node, slow *bool) {
	t.Helper()
	cfg := fastConfig()
	cfg.SiteQueryTimeout = time.Second
	cfg.ReserveTTL = 30 * time.Second
	cfg.MaxAttempts = 1
	slow = new(bool)
	var originAddr transport.Addr
	lat := transport.LatencyFunc(func(from, to transport.Addr) time.Duration {
		if *slow && (from == originAddr || to == originAddr) {
			return 800 * time.Millisecond
		}
		return time.Millisecond
	})
	fed = newObserveFed(t, []string{"virginia", "tokyo"}, 8, cfg, lat)
	origin = fed.BySite["virginia"][1] // not a GPU node: never its own candidate
	originAddr = origin.Addr()
	return fed, origin, slow
}

// awaitQuery runs src at n in the given view mode until its callback fires.
func awaitQuery(t *testing.T, fed *Federation, n *Node, src string, mode ViewMode) QueryResult {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var res QueryResult
	fired := 0
	n.QueryVia(q, "test", nil, mode, func(r QueryResult) { res = r; fired++ })
	for i := 0; i < 600 && fired == 0; i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if fired != 1 {
		t.Fatalf("query %q called back %d times", src, fired)
	}
	return res
}

const awaitView = `SELECT 2 FROM virginia WHERE GPU = true;`

// TestAwaitedRepliesInTimeTimeoutLate drives the core's four request/reply
// calls through pastry's shared table three ways each: the reply beats the
// timeout; the timeout wins, its counter moves and the caller is told; the
// reply then arrives late, is counted where a counter exists, and what the
// remote side did for the abandoned request is undone.
func TestAwaitedRepliesInTimeTimeoutLate(t *testing.T) {
	calls := []struct {
		name string
		// prepare runs on fast links before the case's links are set.
		prepare func(t *testing.T, fed *Federation, origin *Node) QueryResult
		// call makes the request and returns once its callback has fired,
		// reporting whether the reply arrived in time.
		call func(t *testing.T, fed *Federation, origin *Node, prep QueryResult) bool
		// timeouts and late name the counters a timed-out call and its late
		// reply must move ("" where the call has none).
		timeouts, late string
	}{
		{
			name: "site query",
			call: func(t *testing.T, fed *Federation, origin *Node, _ QueryResult) bool {
				res := awaitQuery(t, fed, origin, `SELECT 2 FROM tokyo WHERE GPU = true;`, ViewSkip)
				if res.Err == nil {
					origin.Release(res.QueryID, res.Candidates)
				}
				return res.Err == nil && len(res.Candidates) == 2
			},
			timeouts: "rbay_site_query_timeouts_total",
			late:     "rbay_site_query_late_responses_total",
		},
		{
			name: "view reserve",
			prepare: func(t *testing.T, fed *Federation, origin *Node) QueryResult {
				registerTestView(t, fed, origin, awaitView)
				return QueryResult{}
			},
			call: func(t *testing.T, fed *Federation, origin *Node, _ QueryResult) bool {
				res := awaitQuery(t, fed, origin, awaitView, ViewOnly)
				origin.Release(res.QueryID, res.Candidates)
				return res.Err == nil && len(res.Candidates) == 2
			},
			timeouts: "rbay_view_reserve_timeouts_total",
		},
		{
			name: "view admin",
			call: func(t *testing.T, fed *Federation, origin *Node, _ QueryResult) bool {
				var results []ViewAdminResult
				origin.ViewAdmin(fed.BySite["virginia"][3].Addr(), "list", "", nil, func(r ViewAdminResult) {
					results = append(results, r)
				})
				fed.RunFor(5 * time.Second) // past the timeout and the late reply
				if len(results) != 1 {
					t.Fatalf("ViewAdmin called back %d times, want 1", len(results))
				}
				if e := results[0].Err; e != "" && e != "view admin request timed out" {
					t.Fatalf("ViewAdmin err = %q", e)
				}
				return results[0].Err == ""
			},
		},
		{
			name: "acked commit",
			prepare: func(t *testing.T, fed *Federation, origin *Node) QueryResult {
				return awaitQuery(t, fed, origin, `SELECT 2 FROM virginia WHERE GPU = true;`, ViewSkip)
			},
			call: func(t *testing.T, fed *Federation, origin *Node, prep QueryResult) bool {
				var acks []AckResult
				origin.CommitAcked(prep.QueryID, prep.Candidates, time.Second, func(r AckResult) { acks = append(acks, r) })
				fed.RunFor(1500 * time.Millisecond)
				if len(acks) != 1 || acks[0].Matched+acks[0].Lost != 2 || acks[0].Unmatched != 0 {
					t.Fatalf("CommitAcked reported %+v, want one result covering both owners", acks)
				}
				origin.Release(prep.QueryID, prep.Candidates)
				return acks[0].Matched == 2
			},
			timeouts: "rbay_op_acks_lost_total",
			late:     "rbay_op_acks_late_total",
		},
	}
	for _, c := range calls {
		for _, inTime := range []bool{true, false} {
			name := c.name + "/timeout then late"
			if inTime {
				name = c.name + "/in time"
			}
			t.Run(name, func(t *testing.T) {
				fed, origin, slow := awaitFed(t)
				var prep QueryResult
				if c.prepare != nil {
					prep = c.prepare(t, fed, origin)
				}
				*slow = !inTime
				counter := origin.Metrics().Counter
				if got := c.call(t, fed, origin, prep); got != inTime {
					t.Fatalf("reply in time = %v, want %v", got, inTime)
				}
				if c.timeouts != "" && (counter(c.timeouts) == 0) == !inTime {
					t.Errorf("%s = %d with the reply in time = %v", c.timeouts, counter(c.timeouts), inTime)
				}
				// Let every late reply land and every release it triggers
				// cross the slow links back.
				fed.RunFor(5 * time.Second)
				if c.late != "" && (counter(c.late) == 0) == !inTime {
					t.Errorf("%s = %d with the reply in time = %v", c.late, counter(c.late), inTime)
				}
				if got := counter("pastry_reply_mismatch_total"); got != 0 {
					t.Errorf("pastry_reply_mismatch_total = %d", got)
				}
				for _, site := range []string{"virginia", "tokyo"} {
					if held := reservedCount(fed, site); held != 0 {
						t.Errorf("%d %s reservation(s) outlived the call", held, site)
					}
				}
			})
		}
	}
}

// TestLateViewReserveRespReleasesReservation is the view path's twin of
// TestLateSiteResponseReleasesReservations: a member that reserved itself
// for a fan-out whose request had already timed out at the owner is
// released by the late response, not left locked until its TTL.
func TestLateViewReserveRespReleasesReservation(t *testing.T) {
	fed, origin, slow := awaitFed(t)
	registerTestView(t, fed, origin, awaitView)
	*slow = true
	res := awaitQuery(t, fed, origin, awaitView, ViewOnly)
	if len(res.Candidates) != 0 {
		t.Fatalf("%d candidates although every reserve timed out", len(res.Candidates))
	}
	if got := origin.Metrics().Counter("rbay_view_reserve_timeouts_total"); got == 0 {
		t.Fatal("owner never recorded a view-reserve timeout")
	}
	// The requests are still in flight or just served: members hold
	// reservations for a fan-out that has moved on.
	fed.RunFor(700 * time.Millisecond)
	if reservedCount(fed, "virginia") == 0 {
		t.Fatal("no member reserved itself; test premise broken")
	}
	fed.RunFor(5 * time.Second)
	if held := reservedCount(fed, "virginia"); held != 0 {
		t.Fatalf("%d reservation(s) leaked after the late view-reserve responses", held)
	}
}

// sentPayloads taps the simulated wire: fn sees the application payload of
// every direct message as it is sent.
func sentPayloads(fed *Federation, fn func(payload any)) {
	fed.Net.SetTranscode(func(msg any) (any, error) {
		if env := reflect.ValueOf(msg); env.Kind() == reflect.Struct && env.FieldByName("Payload").IsValid() {
			fn(env.FieldByName("Payload").Interface())
		}
		return msg, nil
	})
}

// TestMismatchedReplyLeavesCallPending: ReqIDs from every layer share one
// table and arrive from the network, so a reply of the wrong type carrying
// a pending site query's ReqID must be dropped and counted — and the site
// query must still complete with its own reply.
func TestMismatchedReplyLeavesCallPending(t *testing.T) {
	fed, origin, _ := awaitFed(t)
	var reqID uint64
	sentPayloads(fed, func(p any) {
		if req, ok := p.(siteQueryReq); ok {
			reqID = req.ReqID
		}
	})
	q, err := query.Parse(`SELECT 2 FROM tokyo WHERE GPU = true;`)
	if err != nil {
		t.Fatal(err)
	}
	var results []QueryResult
	origin.QueryVia(q, "test", nil, ViewSkip, func(r QueryResult) { results = append(results, r) })
	if reqID == 0 {
		t.Fatal("no siteQueryReq left the origin")
	}
	counter := origin.Metrics().Counter
	from := fed.BySite["tokyo"][0].p.Self()
	for i, wrong := range []any{
		viewAdminResp{ReqID: reqID, Key: "k"},
		opAck{ReqID: reqID, Matched: true},
		viewReserveResp{ReqID: reqID},
	} {
		origin.Direct(nil, from, wrong)
		if got := counter("pastry_reply_mismatch_total"); got != uint64(i+1) {
			t.Fatalf("after a %T with the site query's ReqID: pastry_reply_mismatch_total = %d, want %d", wrong, got, i+1)
		}
		if len(results) != 0 {
			t.Fatalf("a %T completed the site query", wrong)
		}
	}
	if got := counter("rbay_op_acks_late_total"); got != 1 {
		t.Errorf("the stray opAck was not counted as late: rbay_op_acks_late_total = %d", got)
	}
	for i := 0; i < 100 && len(results) == 0; i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if len(results) != 1 || results[0].Err != nil || len(results[0].Candidates) != 2 {
		t.Fatalf("site query did not complete with its own reply: %+v", results)
	}
	if got := counter("rbay_site_query_timeouts_total"); got != 0 {
		t.Errorf("rbay_site_query_timeouts_total = %d", got)
	}
}
