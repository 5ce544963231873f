package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rbay/internal/query"
)

// registerTestView registers the query as a view on the node and lets the
// registration multicast reach the tree and the members push their state.
func registerTestView(t *testing.T, fed *Federation, n *Node, src string) *query.Query {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if err := n.RegisterView(q); err != nil {
		t.Fatalf("RegisterView(%q): %v", src, err)
	}
	fed.RunFor(3 * time.Second)
	return q
}

func TestViewServesQueryLocally(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	owner := fed.BySite["virginia"][2]
	q := registerTestView(t, fed, owner, `SELECT 3 FROM virginia WHERE GPU = true;`)

	views := owner.Views()
	if len(views) != 1 || views[0].Key != q.String() {
		t.Fatalf("Views() = %+v, want one view keyed %q", views, q.String())
	}
	// 10 of 40 nodes carry GPUs; all must have pushed membership.
	if views[0].Entries != 10 {
		t.Fatalf("view holds %d entries, want 10", views[0].Entries)
	}

	var res QueryResult
	fired := false
	owner.QueryVia(q, "test", nil, ViewOnly, func(r QueryResult) { res = r; fired = true })
	for i := 0; i < 300 && !fired; i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if !fired {
		t.Fatal("view-served query never completed")
	}
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("candidates = %d, want 3", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		node := nodeAt(fed, c.Addr.String())
		if v, ok := node.Attributes().Get("GPU"); !ok || v != true {
			t.Errorf("candidate %s does not satisfy GPU=true", c.Addr)
		}
	}
	if res.Trace == nil || !strings.Contains(res.Trace.Render(), "view") {
		t.Error("result trace carries no view span")
	}
	if got := owner.Metrics().Snapshot().Histograms["rbay_view_staleness_seconds"]; got.Count == 0 {
		t.Error("rbay_view_staleness_seconds never observed")
	}
	owner.Release(res.QueryID, res.Candidates)
	fed.RunFor(time.Second)
}

func TestViewOnlyWithoutViewFails(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 8)
	n := fed.BySite["virginia"][1]
	q := query.MustParse(`SELECT 2 FROM virginia WHERE GPU = true;`)
	var res QueryResult
	fired := false
	n.QueryVia(q, "test", nil, ViewOnly, func(r QueryResult) { res = r; fired = true })
	fed.RunFor(time.Second)
	if !fired {
		t.Fatal("query never completed")
	}
	if !errors.Is(res.Err, ErrNoView) {
		t.Fatalf("err = %v, want ErrNoView", res.Err)
	}
}

func TestViewDropStopsServing(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 16)
	owner := fed.BySite["virginia"][0]
	q := registerTestView(t, fed, owner, `SELECT 2 FROM virginia WHERE GPU = true;`)
	if !owner.DropView(q.String()) {
		t.Fatal("DropView returned false for a registered view")
	}
	if len(owner.Views()) != 0 {
		t.Fatal("view listed after drop")
	}
	var res QueryResult
	fired := false
	owner.QueryVia(q, "test", nil, ViewOnly, func(r QueryResult) { res = r; fired = true })
	fed.RunFor(time.Second)
	if !fired || !errors.Is(res.Err, ErrNoView) {
		t.Fatalf("after drop: fired=%v err=%v, want ErrNoView", fired, res.Err)
	}
}

// TestViewConcurrentServesNoDoubleAllocation: serving from a view still
// goes through the reservation protocol, so two concurrent view reads
// must never hand out the same node.
func TestViewConcurrentServesNoDoubleAllocation(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	owner := fed.BySite["virginia"][4]
	q := registerTestView(t, fed, owner, `SELECT 4 FROM virginia WHERE GPU = true;`)

	results := make([]QueryResult, 2)
	done := make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		owner.QueryVia(q, fmt.Sprintf("test-%d", i), nil, ViewOnly, func(r QueryResult) {
			results[i] = r
			done[i] = true
		})
	}
	for i := 0; i < 300 && !(done[0] && done[1]); i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if !done[0] || !done[1] {
		t.Fatal("concurrent view reads never completed")
	}
	seen := map[string]int{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d err: %v", i, r.Err)
		}
		for _, c := range r.Candidates {
			if prev, dup := seen[c.Addr.String()]; dup {
				t.Errorf("node %s allocated to both concurrent view reads (%d and %d)", c.Addr, prev, i)
			}
			seen[c.Addr.String()] = i
		}
	}
	// 10 GPU nodes, 4+4 requested: both must fill.
	if len(results[0].Candidates) != 4 || len(results[1].Candidates) != 4 {
		t.Errorf("fills = %d and %d, want 4 and 4",
			len(results[0].Candidates), len(results[1].Candidates))
	}
	for i, r := range results {
		_ = i
		owner.Release(r.QueryID, r.Candidates)
	}
	fed.RunFor(time.Second)
}

// TestViewAutoFallsBackWhenViewThin: under ViewAuto a view that cannot
// fill k is topped up by the ordinary probe/anycast round instead of
// returning short.
func TestViewAutoFallsBackWhenViewThin(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 40)
	owner := fed.BySite["virginia"][6]
	// util<10%: i%20 in {0,1} → 4 of 40 nodes. Ask for all 4 twice in a
	// row; the second read hits reservations from the first? No — release
	// between. Instead: shrink the view artificially by dropping entries,
	// then check ViewAuto still fills from the tree walk.
	q := registerTestView(t, fed, owner, `SELECT 4 FROM virginia WHERE CPU_utilization < 10%;`)
	v := owner.views[q.String()]
	if v == nil {
		t.Fatal("view not registered")
	}
	if len(v.entries) != 4 {
		t.Fatalf("view holds %d entries, want 4", len(v.entries))
	}
	// Artificially thin the view to 1 entry: ViewAuto must fall back and
	// still deliver 4; ViewOnly afterwards must return short.
	for a := range v.entries {
		if len(v.entries) == 1 {
			break
		}
		delete(v.entries, a)
	}
	var res QueryResult
	fired := false
	owner.QueryVia(q, "test", nil, ViewAuto, func(r QueryResult) { res = r; fired = true })
	for i := 0; i < 300 && !fired; i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if !fired {
		t.Fatal("ViewAuto query never completed")
	}
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
	if len(res.Candidates) != 4 {
		t.Fatalf("ViewAuto candidates = %d, want 4 (fallback must top up)", len(res.Candidates))
	}
	if got := owner.Metrics().Snapshot().Counters["rbay_view_fallbacks_total"]; got == 0 {
		t.Error("rbay_view_fallbacks_total = 0, want > 0")
	}
	owner.Release(res.QueryID, res.Candidates)
	fed.RunFor(time.Second)
}

// nodeAt finds a federation node by address string.
func nodeAt(fed *Federation, addr string) *Node {
	for _, n := range fed.Nodes {
		if n.Addr().String() == addr {
			return n
		}
	}
	return nil
}

// TestViewPropertyIncrementalMatchesScratch is the view subsystem's
// property test: over a random schedule of attribute updates, deletions,
// and re-posts, the incrementally maintained candidate set must — after
// each step settles within the documented staleness bound — equal the set
// produced by evaluating the Zql predicates from scratch against every
// node's live attributes. A node that left the planned tree long enough
// for its view subscription to expire re-enters via the next registration
// refresh, so the per-step settle must cover membership re-evaluation
// (500ms) plus one refresh interval (2s) plus delivery; 3.5s of virtual
// time bounds all of it.
func TestViewPropertyIncrementalMatchesScratch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			fed := newTestFed(t, []string{"virginia"}, 20)
			nodes := fed.BySite["virginia"]
			owner := nodes[5]
			q := registerTestView(t, fed, owner,
				`SELECT 3 FROM virginia WHERE GPU = true AND CPU_utilization < 50%;`)
			v := owner.views[q.String()]
			if v == nil {
				t.Fatal("view not registered")
			}
			rng := rand.New(rand.NewSource(seed))
			steps := 40
			if testing.Short() {
				steps = 12
			}
			for step := 0; step < steps; step++ {
				n := nodes[rng.Intn(len(nodes))]
				switch rng.Intn(5) {
				case 0:
					n.SetAttribute("GPU", true)
				case 1:
					n.SetAttribute("GPU", false)
				case 2:
					n.Attributes().Delete("GPU") // withdrawal
				case 3:
					n.SetAttribute("CPU_utilization", float64(rng.Intn(100))/100.0)
				case 4:
					// Re-post: withdraw and immediately re-announce.
					n.Attributes().Delete("GPU")
					n.SetAttribute("GPU", true)
				}
				fed.RunFor(3500 * time.Millisecond)

				got := map[string]bool{}
				for a := range v.entries {
					got[a.String()] = true
				}
				want := map[string]bool{}
				for _, m := range nodes {
					match := true
					for _, p := range q.Preds {
						val, ok := m.Attributes().Get(p.Attr)
						if !ok || !p.Eval(val) {
							match = false
							break
						}
					}
					if match {
						want[m.Addr().String()] = true
					}
				}
				for a := range want {
					if !got[a] {
						t.Fatalf("step %d: node %s satisfies the query but is missing from the view (view=%d truth=%d)",
							step, a, len(got), len(want))
					}
				}
				for a := range got {
					if !want[a] {
						t.Fatalf("step %d: node %s is in the view but no longer satisfies the query (view=%d truth=%d)",
							step, a, len(got), len(want))
					}
				}
			}
		})
	}
}
