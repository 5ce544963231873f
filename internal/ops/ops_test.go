package ops

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rbay/internal/core"
	"rbay/internal/naming"
	"rbay/internal/scribe"
	"rbay/internal/store"
)

func testRegistry(t testing.TB) *naming.Registry {
	t.Helper()
	r := naming.NewRegistry()
	r.MustDefine(naming.TreeDef{Name: "GPU", Pred: naming.Pred{Attr: "GPU", Op: naming.OpEq, Value: true}, Creator: "rbay"})
	return r
}

func fastConfig() core.Config {
	return core.Config{
		Scribe:             scribe.Config{AggregateInterval: 300 * time.Millisecond},
		MembershipInterval: 500 * time.Millisecond,
		ReserveTTL:         3 * time.Second,
		BackoffSlot:        20 * time.Millisecond,
	}
}

// newFed builds one 12-node site where nodes 0,4,8 have GPUs.
func newFed(t testing.TB) *core.Federation {
	t.Helper()
	fed, err := core.NewFederation(testRegistry(t), core.FedConfig{
		Sites:        []string{"lab"},
		NodesPerSite: 12,
		Node:         fastConfig(),
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range fed.BySite["lab"] {
		n.SetAttribute("GPU", i%4 == 0)
	}
	fed.Settle()
	return fed
}

func testEngine(fed *core.Federation, st Store, cfg Config) *Engine {
	n := fed.BySite["lab"][0]
	if cfg.StepTimeout == 0 {
		cfg.StepTimeout = 3 * time.Second
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryCap == 0 {
		cfg.RetryCap = time.Second
	}
	return NewEngine(n, st, cfg)
}

// driveUntil steps the simulation until pred holds or ~60 virtual
// seconds pass.
func driveUntil(t *testing.T, fed *core.Federation, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < 600; i++ {
		if pred() {
			return
		}
		fed.RunFor(100 * time.Millisecond)
	}
	t.Fatalf("condition %q never held", what)
}

func terminal(e *Engine, id string) func() bool {
	return func() bool {
		op, ok := e.Get(id)
		return ok && op.State.Terminal()
	}
}

func committedCount(fed *core.Federation) int {
	n := 0
	for _, node := range fed.BySite["lab"] {
		if _, c, ok := node.Reserved(); ok && c {
			n++
		}
	}
	return n
}

func TestReserveCommitReleaseLifecycle(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})

	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;", Tenant: "acme"})
	if err != nil {
		t.Fatalf("submit reserve: %v", err)
	}
	if res.State != StatePending {
		t.Fatalf("fresh op state = %s", res.State)
	}
	driveUntil(t, fed, "reserve terminal", terminal(e, res.ID))
	got, _ := e.Get(res.ID)
	if got.State != StateDone || len(got.Candidates) != 2 || got.QueryID == "" {
		t.Fatalf("reserve op = %+v", got)
	}

	com, err := e.Submit(Request{Kind: KindCommit, FromOp: res.ID})
	if err != nil {
		t.Fatalf("submit commit: %v", err)
	}
	driveUntil(t, fed, "commit terminal", terminal(e, com.ID))
	if op, _ := e.Get(com.ID); op.State != StateDone {
		t.Fatalf("commit op = %+v", op)
	}
	// Leases hold past TTL.
	fed.RunFor(10 * time.Second)
	if n := committedCount(fed); n != 2 {
		t.Fatalf("committed = %d, want 2", n)
	}

	rel, err := e.Submit(Request{Kind: KindRelease, FromOp: res.ID})
	if err != nil {
		t.Fatalf("submit release: %v", err)
	}
	driveUntil(t, fed, "release terminal", terminal(e, rel.ID))
	if op, _ := e.Get(rel.ID); op.State != StateDone {
		t.Fatalf("release op = %+v", op)
	}
	if n := committedCount(fed); n != 0 {
		t.Fatalf("committed after release = %d", n)
	}
}

func TestCommitBeforeReserveFinishesParksThenRuns(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	// Submit the commit immediately, while the reserve has not run yet:
	// it must park on the reserve and complete after it.
	com, err := e.Submit(Request{Kind: KindCommit, FromOp: res.ID})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "both terminal", func() bool {
		a, _ := e.Get(res.ID)
		b, _ := e.Get(com.ID)
		return a.State.Terminal() && b.State.Terminal()
	})
	a, _ := e.Get(res.ID)
	b, _ := e.Get(com.ID)
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("reserve=%+v commit=%+v", a, b)
	}
	if committedCount(fed) != 1 {
		t.Fatalf("committed = %d, want 1", committedCount(fed))
	}
}

func TestCommitAfterTTLExpiryRollsBack(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	res, _ := e.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;"})
	driveUntil(t, fed, "reserve terminal", terminal(e, res.ID))
	// Sit past the reservation TTL before committing.
	fed.RunFor(10 * time.Second)
	com, _ := e.Submit(Request{Kind: KindCommit, FromOp: res.ID})
	driveUntil(t, fed, "commit terminal", terminal(e, com.ID))
	op, _ := e.Get(com.ID)
	if op.State != StateRolledBack {
		t.Fatalf("commit op = %+v, want rolled-back", op)
	}
	if !strings.Contains(op.Error, "expired") {
		t.Fatalf("rollback reason %q misses expiry", op.Error)
	}
	fed.RunFor(5 * time.Second)
	if n := committedCount(fed); n != 0 {
		t.Fatalf("committed = %d after rolled-back commit", n)
	}
}

func TestIdempotencyKeyDedupesConcurrentSubmits(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	const submitters = 8
	ids := make([]string, submitters)
	dedups := make([]bool, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op, err := e.Submit(Request{
				Kind:    KindReserve,
				Query:   "SELECT 1 FROM lab WHERE GPU = true;",
				Tenant:  "acme",
				IdemKey: "lease-42",
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = op.ID
			dedups[i] = op.Dedup
		}(i)
	}
	wg.Wait()
	created := 0
	for i := 0; i < submitters; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submit %d got op %s, want %s", i, ids[i], ids[0])
		}
		if !dedups[i] {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d submissions created records, want 1", created)
	}
	driveUntil(t, fed, "op terminal", terminal(e, ids[0]))
	// Exactly one reservation in the federation.
	reserved := 0
	for _, node := range fed.BySite["lab"] {
		if _, _, ok := node.Reserved(); ok {
			reserved++
		}
	}
	if reserved != 1 {
		t.Fatalf("reserved = %d, want exactly 1", reserved)
	}
	// A different tenant with the same key gets its own op.
	other, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;", Tenant: "umbrella", IdemKey: "lease-42"})
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == ids[0] || other.Dedup {
		t.Fatalf("cross-tenant submission deduped: %+v", other)
	}
}

func TestQueueFullSheds(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{QueueMax: 2})
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// Drain refuses new submissions at once and reports what is still in
// flight when its (wall-clock) timeout runs out.
func TestDrainRefusesNewWork(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	op, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Draining() {
		t.Fatal("draining before Drain")
	}
	if left := e.Drain(0); left != 1 || !e.Draining() {
		t.Fatalf("Drain(0) = %d, draining = %v; want 1 op in flight", left, e.Draining())
	}
	if _, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	// Accepted work still completes.
	driveUntil(t, fed, "op terminal", terminal(e, op.ID))
	if left := e.Drain(time.Second); left != 0 {
		t.Fatalf("Drain after quiescence = %d", left)
	}
}

func TestSubmitValidation(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	cases := []Request{
		{Kind: KindReserve},
		{Kind: KindReserve, Query: "not sql"},
		{Kind: KindCommit},
		{Kind: KindAttrs},
		{Kind: KindAttrs, Updates: []Update{{Name: ""}}},
		{Kind: "mystery"},
	}
	for _, req := range cases {
		if _, err := e.Submit(req); !errors.Is(err, ErrInvalid) {
			t.Errorf("Submit(%+v) err = %v, want ErrInvalid", req, err)
		}
	}
}

func TestCommitUnknownSourceFails(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	com, err := e.Submit(Request{Kind: KindCommit, FromOp: "op-lab-n9-99"})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "commit terminal", terminal(e, com.ID))
	op, _ := e.Get(com.ID)
	if op.State != StateFailed || !strings.Contains(op.Error, "unknown source op") {
		t.Fatalf("op = %+v", op)
	}
}

func TestAttrsOpAppliesThroughIngest(t *testing.T) {
	fed := newFed(t)
	e := testEngine(fed, nil, Config{})
	op, err := e.Submit(Request{Kind: KindAttrs, Updates: []Update{
		{Name: "mem_gb", Value: 64},
		{Name: "rack", Value: "r12"},
		{Name: "bogus", Value: map[string]any{"no": "pe"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "attrs terminal", terminal(e, op.ID))
	got, _ := e.Get(op.ID)
	if got.State != StateDone {
		t.Fatalf("attrs op = %+v", got)
	}
	if !strings.Contains(got.Error, "1/3 updates rejected") {
		t.Fatalf("partial failure not reported: %+v", got)
	}
	n := fed.BySite["lab"][0]
	if v, _ := n.Attributes().Get("rack"); v != "r12" {
		t.Fatalf("rack = %v", v)
	}
}

func TestRestoreReplaysIncompleteOps(t *testing.T) {
	disk := store.NewMemDir()
	log, _, err := store.Open(disk, store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fed1 := newFed(t)
	e1 := testEngine(fed1, log, Config{})
	res, err := e1.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;", IdemKey: "boot-1", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	att, err := e1.Submit(Request{Kind: KindAttrs, Updates: []Update{{Name: "rack", Value: "r7"}, {Name: "tags", Value: []string{"ssd", "gpu"}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Crash before anything ran: the WAL holds two pending records.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, st, err := store.Open(disk, store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ops) != 2 {
		t.Fatalf("recovered ops = %d, want 2", len(st.Ops))
	}
	fed2 := newFed(t)
	e2 := testEngine(fed2, log2, Config{})
	if n := e2.Restore(st.Ops); n != 2 {
		t.Fatalf("Restore requeued %d, want 2", n)
	}
	driveUntil(t, fed2, "both terminal", func() bool {
		a, _ := e2.Get(res.ID)
		b, _ := e2.Get(att.ID)
		return a.State.Terminal() && b.State.Terminal()
	})
	a, _ := e2.Get(res.ID)
	if a.State != StateDone || len(a.Candidates) != 2 {
		t.Fatalf("restored reserve = %+v", a)
	}
	b, _ := e2.Get(att.ID)
	if b.State != StateDone {
		t.Fatalf("restored attrs = %+v", b)
	}
	// The record's JSON list comes back as the []string it was.
	if v, _ := fed2.BySite["lab"][0].Attributes().Get("tags"); !reflect.DeepEqual(v, []string{"ssd", "gpu"}) {
		t.Fatalf("restored tags = %#v", v)
	}
	// The idempotency key survives the restart: re-submitting after
	// recovery returns the same op instead of reserving again.
	again, err := e2.Submit(Request{Kind: KindReserve, Query: "SELECT 2 FROM lab WHERE GPU = true;", IdemKey: "boot-1", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != res.ID || !again.Dedup {
		t.Fatalf("post-restart resubmit = %+v, want dedup of %s", again, res.ID)
	}
	// Fresh IDs must not collide with restored ones.
	fresh, err := e2.Submit(Request{Kind: KindAttrs, Updates: []Update{{Name: "x", Value: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := st.Ops[fresh.ID]; clash {
		t.Fatalf("fresh op reused recovered ID %s", fresh.ID)
	}
	// Terminal transitions landed durably.
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3, err := store.Open(disk, store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := st3.Ops[res.ID]; !ok || rec.State != string(StateDone) || len(rec.Candidates) != 2 {
		t.Fatalf("durable reserve record = %+v", st3.Ops[res.ID])
	}
}

func TestTerminalRetentionPrunes(t *testing.T) {
	disk := store.NewMemDir()
	log, _, err := store.Open(disk, store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fed := newFed(t)
	e := testEngine(fed, log, Config{RetainTerminal: 2})
	var last string
	for i := 0; i < 5; i++ {
		op, err := e.Submit(Request{Kind: KindAttrs, Updates: []Update{{Name: "k", Value: i}}})
		if err != nil {
			t.Fatal(err)
		}
		last = op.ID
		driveUntil(t, fed, "attrs terminal", terminal(e, last))
	}
	if got := len(e.List()); got != 2 {
		t.Fatalf("retained ops = %d, want 2", got)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := store.Open(disk, store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ops) != 2 {
		t.Fatalf("durable retained ops = %d, want 2", len(st.Ops))
	}
}
