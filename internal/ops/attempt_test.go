package ops

import (
	"strings"
	"testing"
	"time"

	"rbay/internal/core"
	"rbay/internal/store"
	"rbay/internal/transport"
)

// The tests here drive the arms that decide whether a lease is kept or
// undone when owners stop answering, through a real engine on simnet.

// retryConfig gives every phase two attempts, one second each.
func retryConfig() Config {
	return Config{StepTimeout: time.Second, RetryMax: 2}
}

// reserveTwo runs a two-GPU reserve to done and returns it with one owner
// that is not the engine's own node.
func reserveTwo(t *testing.T, fed *core.Federation, e *Engine) (Op, transport.Addr) {
	t.Helper()
	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "reserve terminal", terminal(e, res.ID))
	res, _ = e.Get(res.ID)
	if res.State != StateDone || len(res.Candidates) != 2 {
		t.Fatalf("reserve op = %+v", res)
	}
	for _, c := range res.Candidates {
		if c.Host != "n0000" {
			return res, transport.Addr{Site: c.Site, Host: c.Host}
		}
	}
	t.Fatal("no remote owner among the candidates")
	return Op{}, transport.Addr{}
}

// cutOff makes addr unreachable in both directions.
func cutOff(fed *core.Federation, addr transport.Addr) {
	fed.Net.SetDropFunc(func(from, to transport.Addr) bool { return from == addr || to == addr })
}

func reservedCount(fed *core.Federation) int {
	n := 0
	for _, node := range fed.BySite["lab"] {
		if _, _, ok := node.Reserved(); ok {
			n++
		}
	}
	return n
}

// An owner that never answers spends the commit's attempts, the commit is
// undone at the owners that did answer, and when the silent owner stays
// silent through the rollback too the op says its hold is left to TTL.
func TestCommitUnreachableOwnerRollsBack(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, retryConfig())
	res, victim := reserveTwo(t, fed, e)
	cutOff(fed, victim)
	com, err := e.Submit(Request{Kind: KindCommit, FromOp: res.ID})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "commit terminal", terminal(e, com.ID))
	op, _ := e.Get(com.ID)
	want := "commit incomplete after 2 attempts: 1 owner(s) unreachable; rollback incomplete: 1 owner(s) unreachable (TTL frees uncommitted holds)"
	if op.State != StateRolledBack || op.Error != want || op.Attempts != 2 {
		t.Fatalf("commit op = %+v\nwant rolled-back after 2 rollback attempts with %q", op, want)
	}
	if n := committedCount(fed); n != 0 {
		t.Fatalf("%d lease(s) still committed after the rollback", n)
	}
	fed.Net.SetDropFunc(nil)
	fed.RunFor(5 * time.Second)
	if n := reservedCount(fed); n != 0 {
		t.Fatalf("%d hold(s) outlived their TTL", n)
	}
	if got := fed.BySite["lab"][0].Metrics().Counter("rbay_ops_retries_total"); got != 2 {
		t.Fatalf("retries = %d, want one per phase", got)
	}
}

// The owner comes back while the rollback is retrying: the second release
// fan-out reaches it and the op ends with the commit's reason alone.
func TestRollbackRetriesUntilAcked(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, retryConfig())
	res, victim := reserveTwo(t, fed, e)
	cutOff(fed, victim)
	com, err := e.Submit(Request{Kind: KindCommit, FromOp: res.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Attempts reads 1, 2 through the commit phase and starts over at 1
	// when the rollback begins.
	sawSecondCommit := false
	driveUntil(t, fed, "rollback started", func() bool {
		op, _ := e.Get(com.ID)
		sawSecondCommit = sawSecondCommit || op.Attempts == 2
		return sawSecondCommit && op.Attempts == 1
	})
	fed.Net.SetDropFunc(nil)
	driveUntil(t, fed, "commit terminal", terminal(e, com.ID))
	op, _ := e.Get(com.ID)
	if op.State != StateRolledBack || op.Error != "commit incomplete after 2 attempts: 1 owner(s) unreachable" || op.Attempts != 2 {
		t.Fatalf("commit op = %+v", op)
	}
	if n := reservedCount(fed); n != 0 {
		t.Fatalf("%d hold(s) left after an acked rollback", n)
	}
}

func TestReleaseUnreachableOwnerFails(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, retryConfig())
	res, victim := reserveTwo(t, fed, e)
	com, err := e.Submit(Request{Kind: KindCommit, FromOp: res.ID})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "commit terminal", terminal(e, com.ID))
	cutOff(fed, victim)
	rel, err := e.Submit(Request{Kind: KindRelease, FromOp: res.ID})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "release terminal", terminal(e, rel.ID))
	op, _ := e.Get(rel.ID)
	if op.State != StateFailed || op.Error != "release incomplete after 2 attempts: 1 owner(s) unreachable" {
		t.Fatalf("release op = %+v", op)
	}
	// The owner that could be reached was released; the other still holds.
	if n := committedCount(fed); n != 1 {
		t.Fatalf("committed = %d, want the unreachable owner's lease only", n)
	}
}

// The engine's node cannot send, so the first reserve attempt outlives its
// deadline; the network heals during the backoff and the second attempt
// completes the op.
func TestReserveDeadlineRetriesToDone(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{StepTimeout: 500 * time.Millisecond, RetryBase: 200 * time.Millisecond})
	cutOff(fed, fed.BySite["lab"][0].Addr())
	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		op, _ := e.Get(res.ID)
		if op.Error != "" {
			if op.State != StateRunning || op.Error != "reserve deadline exceeded" || op.Attempts != 1 {
				t.Fatalf("op after the first deadline = %+v", op)
			}
			break
		}
		if i == 100 {
			t.Fatal("the reserve deadline never fired")
		}
		fed.RunFor(10 * time.Millisecond)
	}
	fed.Net.SetDropFunc(nil)
	driveUntil(t, fed, "reserve terminal", terminal(e, res.ID))
	op, _ := e.Get(res.ID)
	if op.State != StateDone || op.Attempts != 2 || len(op.Candidates) != 2 || op.Error != "" {
		t.Fatalf("reserve op = %+v", op)
	}
}

// A reserve whose only attempt is cut short by its deadline fails at once;
// the query it started still completes, and what it reserved is released
// on arrival instead of blocking two nodes until TTL.
func TestLateReserveResultIsReleased(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{StepTimeout: time.Millisecond, RetryMax: 1})
	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	// fastConfig's ReserveTTL is 3 s: stay well inside it.
	held := 0
	for i := 0; i < 1000; i++ {
		fed.RunFor(time.Millisecond)
		if n := reservedCount(fed); n > held {
			held = n
		}
	}
	op, _ := e.Get(res.ID)
	if op.State != StateFailed || op.Error != "reserve deadline exceeded" || len(op.Candidates) != 0 {
		t.Fatalf("reserve op = %+v", op)
	}
	if held != 2 {
		t.Fatalf("the late query held %d node(s), want 2 — the test no longer exercises a late result", held)
	}
	if n := reservedCount(fed); n != 0 {
		t.Fatalf("%d node(s) still reserved a second after the late result, TTL is 3s", n)
	}
}

// A reserve result that lands after its attempt's deadline but before the
// retry's backoff has started the next attempt belongs to a closed attempt:
// it must not finish the op (it used to read done with attempts 1) nor, had
// it been an error, schedule a second retry — what it reserved is released
// and the one scheduled retry goes ahead.
func TestReserveResultBetweenDeadlineAndRetryIsStale(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{StepTimeout: time.Millisecond, RetryMax: 2, RetryBase: time.Second})
	retries := func() uint64 { return fed.BySite["lab"][0].Metrics().Counter("rbay_ops_retries_total") }
	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	// The deadline fires at 1 ms, the query answers a few ms later, the
	// retry is due at 1 s.
	held := 0
	for i := 0; i < 500; i++ {
		fed.RunFor(time.Millisecond)
		if n := reservedCount(fed); n > held {
			held = n
		}
	}
	if held != 2 {
		t.Fatalf("the late query held %d node(s), want 2 — no result landed inside the backoff", held)
	}
	op, _ := e.Get(res.ID)
	if op.State != StateRunning || op.Attempts != 1 || op.Error != "reserve deadline exceeded" || len(op.Candidates) != 0 {
		t.Fatalf("op after a result landed in the backoff = %+v, want it still waiting for its retry", op)
	}
	if n := reservedCount(fed); n != 0 {
		t.Fatalf("%d node(s) still hold the closed attempt's reservation", n)
	}
	if got := retries(); got != 1 {
		t.Fatalf("retries scheduled = %d, want 1", got)
	}
	driveUntil(t, fed, "reserve terminal", terminal(e, res.ID))
	op, _ = e.Get(res.ID)
	if op.State != StateFailed || op.Attempts != 2 || retries() != 1 {
		t.Fatalf("reserve op = %+v after %d retries, want failed on its second deadline", op, retries())
	}
	fed.RunFor(500 * time.Millisecond)
	if n := reservedCount(fed); n != 0 {
		t.Fatalf("%d node(s) still reserved after the second late result", n)
	}
}

func TestReservePermanentErrorFailsWithoutRetry(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;", Mode: "only"})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "reserve terminal", terminal(e, res.ID))
	op, _ := e.Get(res.ID)
	if op.State != StateFailed || op.Error != core.ErrNoView.Error() || op.Attempts != 1 {
		t.Fatalf("reserve op = %+v", op)
	}
}

func TestAttrsAllRejectedFails(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	op, err := e.Submit(Request{Kind: KindAttrs, Updates: []Update{
		{Name: "a", Value: map[string]any{"no": "pe"}},
		{Name: "b", Value: []any{1, "x"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "attrs terminal", terminal(e, op.ID))
	got, _ := e.Get(op.ID)
	if got.State != StateFailed || !strings.HasPrefix(got.Error, "a: ") || !strings.Contains(got.Error, "; b: ") {
		t.Fatalf("attrs op = %+v", got)
	}
}

// Restore meets records this build cannot run: an unknown kind, a commit
// whose source reserve ended failed, and attrs ops whose update list is
// empty or does not decode (nothing to enqueue, so no ack would ever end
// them). All end failed, naming why, instead of holding a worker slot.
func TestRestoredUnrunnableOpsFail(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	n := e.Restore(map[string]store.StoredOp{
		"op-x-1": {ID: "op-x-1", Kind: "teleport", State: string(StatePending)},
		"op-x-2": {ID: "op-x-2", Kind: string(KindReserve), State: string(StateFailed), Error: "boom"},
		"op-x-3": {ID: "op-x-3", Kind: string(KindCommit), State: string(StatePending), FromOp: "op-x-2"},
		"op-x-4": {ID: "op-x-4", Kind: string(KindAttrs), State: string(StateRunning)},
		"op-x-5": {ID: "op-x-5", Kind: string(KindAttrs), State: string(StatePending), Updates: `[{"name":`},
	})
	if n != 4 {
		t.Fatalf("Restore requeued %d, want 4", n)
	}
	driveUntil(t, fed, "all terminal", func() bool {
		return terminal(e, "op-x-1")() && terminal(e, "op-x-3")() && terminal(e, "op-x-4")() && terminal(e, "op-x-5")()
	})
	for _, id := range []string{"op-x-4", "op-x-5"} {
		if op, _ := e.Get(id); op.State != StateFailed || op.Error != "no updates to apply" {
			t.Fatalf("attrs op without updates = %+v", op)
		}
	}
	e.mu.Lock()
	held := e.runningN
	e.mu.Unlock()
	if held != 0 {
		t.Fatalf("%d worker slots still held", held)
	}
	if op, _ := e.Get("op-x-1"); op.State != StateFailed || op.Error != "unknown kind teleport" {
		t.Fatalf("unknown-kind op = %+v", op)
	}
	if op, _ := e.Get("op-x-3"); op.State != StateFailed || op.Error != "source op op-x-2 ended failed" {
		t.Fatalf("commit of a failed reserve = %+v", op)
	}
}
