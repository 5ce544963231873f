package core

import (
	"sort"
	"testing"
	"time"

	"rbay/internal/query"
	"rbay/internal/store"
)

// drainIngest drives the federation until the node's ingest queue is
// empty (plus one settle step for acks).
func drainIngest(t *testing.T, fed *Federation, n *Node) {
	t.Helper()
	for i := 0; i < 200 && n.Ingest().Depth() > 0; i++ {
		fed.RunFor(50 * time.Millisecond)
	}
	if n.Ingest().Depth() > 0 {
		t.Fatalf("ingest queue never drained: depth %d", n.Ingest().Depth())
	}
	fed.RunFor(50 * time.Millisecond)
}

func TestIngestAppliesThroughQueue(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 8)
	n := fed.BySite["virginia"][3]

	acked := 0
	var ackErr error
	for i := 0; i < 5; i++ {
		// Repeated writes to one key plus one write to another: the apply
		// loop must coalesce the former and land the latter.
		if err := n.IngestEnqueue("CPU_utilization", float64(i)/10, "test", func(err error) { acked++; ackErr = err }); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if err := n.IngestEnqueue("mem_gb", 32.0, "test", nil); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	drainIngest(t, fed, n)

	if v, _ := n.Attributes().Get("CPU_utilization"); v != 0.4 {
		t.Fatalf("CPU_utilization = %v, want 0.4 (last write wins)", v)
	}
	if v, _ := n.Attributes().Get("mem_gb"); v != 32.0 {
		t.Fatalf("mem_gb = %v, want 32", v)
	}
	if acked != 5 || ackErr != nil {
		t.Fatalf("acks = %d (err %v), want 5 nil acks", acked, ackErr)
	}
	st := n.Ingest().QueueStats()
	if st.Applied != 6 || st.Coalesced != 4 {
		t.Fatalf("stats = %+v, want 6 applied / 4 coalesced", st)
	}
	snap := n.Metrics().Snapshot()
	if snap.Histograms["rbay_ingest_staleness_seconds"].Count == 0 {
		t.Error("rbay_ingest_staleness_seconds never observed")
	}
	if snap.Counters["rbay_ingest_applied_total"] != 6 {
		t.Errorf("rbay_ingest_applied_total = %d, want 6", snap.Counters["rbay_ingest_applied_total"])
	}
}

func TestIngestQuarantinedAttributeNacks(t *testing.T) {
	reg := testRegistry(t)
	cfg := fastConfig()
	cfg.AAQuarantineAfter = 1
	fed, err := NewFederation(reg, FedConfig{
		Sites: []string{"virginia"}, NodesPerSite: 4, Node: cfg, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := fed.BySite["virginia"][0]
	n.SetAttribute("mem_gb", 8.0)
	// A failing onTimer handler trips the quarantine on the first
	// membership tick.
	if err := n.Attributes().Attach("mem_gb", `function onTimer() return nil + 1 end`); err != nil {
		t.Fatalf("attach: %v", err)
	}
	fed.Settle()
	if a, _ := n.Attributes().Lookup("mem_gb"); !a.Quarantined() {
		t.Fatal("attribute never quarantined")
	}

	var ackErr error
	if err := n.IngestEnqueue("mem_gb", 64.0, "test", func(err error) { ackErr = err }); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	drainIngest(t, fed, n)

	if ackErr == nil {
		t.Fatal("quarantined update acked as applied")
	}
	if v, _ := n.Attributes().Get("mem_gb"); v != 8.0 {
		t.Fatalf("mem_gb = %v, quarantined update must not apply", v)
	}
	errs := n.Ingest().Errors()
	if len(errs) != 1 || errs[0].Name != "mem_gb" || errs[0].Reason != "attribute quarantined" {
		t.Fatalf("error queue = %+v, want one quarantine nack", errs)
	}
}

// viewAddrs serves the view ViewOnly and returns the candidate address
// set, the observable output the per-write and batched paths must agree
// on.
func viewAddrs(t *testing.T, fed *Federation, owner *Node, q *query.Query) []string {
	t.Helper()
	var res QueryResult
	fired := false
	owner.QueryVia(q, "test", nil, ViewOnly, func(r QueryResult) { res = r; fired = true })
	for i := 0; i < 300 && !fired; i++ {
		fed.RunFor(100 * time.Millisecond)
	}
	if !fired {
		t.Fatal("view query never completed")
	}
	if res.Err != nil {
		t.Fatalf("view query: %v", res.Err)
	}
	addrs := make([]string, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		addrs = append(addrs, c.Addr.String())
	}
	sort.Strings(addrs)
	owner.Release(res.QueryID, res.Candidates)
	fed.RunFor(time.Second)
	return addrs
}

// TestIngestBatchViewEquivalence is the debounce regression test: the
// same attribute mutations applied per-write (SetAttribute → one
// viewsAttrChanged per key) and batched (ingest → one
// viewsAttrChanged pass per batch) must leave a materialized view with
// identical membership.
func TestIngestBatchViewEquivalence(t *testing.T) {
	type mutation struct {
		node int
		name string
		val  any
	}
	// Crossing the util<50% threshold both ways, a no-op rewrite, and an
	// unrelated attribute.
	muts := []mutation{
		{1, "CPU_utilization", 0.90}, // 0.05 → leaves the view
		{2, "CPU_utilization", 0.10}, // 0.10 → no-op rewrite
		{14, "CPU_utilization", 0.20},
		{14, "CPU_utilization", 0.95}, // overwritten above, then leaves
		{3, "mem_gb", 64.0},           // not predicated over
		{17, "CPU_utilization", 0.05}, // 0.85 → enters the view
	}
	src := `SELECT * FROM virginia WHERE CPU_utilization < 50%;`

	run := func(batched bool) []string {
		fed := newTestFed(t, []string{"virginia"}, 20)
		owner := fed.BySite["virginia"][6]
		q := registerTestView(t, fed, owner, src)
		for _, mu := range muts {
			n := fed.BySite["virginia"][mu.node]
			if batched {
				if err := n.IngestEnqueue(mu.name, mu.val, "test", nil); err != nil {
					t.Fatalf("enqueue: %v", err)
				}
			} else {
				n.SetAttribute(mu.name, mu.val)
			}
		}
		if batched {
			for _, mu := range muts {
				drainIngest(t, fed, fed.BySite["virginia"][mu.node])
			}
		}
		fed.RunFor(3 * time.Second)
		return viewAddrs(t, fed, owner, q)
	}

	perWrite := run(false)
	viaBatch := run(true)
	if len(perWrite) == 0 {
		t.Fatal("per-write view is empty — test mutations lost")
	}
	if len(perWrite) != len(viaBatch) {
		t.Fatalf("view membership differs: per-write %v vs batched %v", perWrite, viaBatch)
	}
	for i := range perWrite {
		if perWrite[i] != viaBatch[i] {
			t.Fatalf("view membership differs: per-write %v vs batched %v", perWrite, viaBatch)
		}
	}
}

// TestIngestWALFrameBatching: a K-key batch applied through ingest pays
// one WAL frame; the same K writes through the synchronous per-Set path
// pay K.
func TestIngestWALFrameBatching(t *testing.T) {
	fed, _ := storedFed(t, 4, store.SyncAlways, "n0000", "n0001")
	byHost := map[string]*Node{}
	for _, n := range fed.BySite["virginia"] {
		byHost[n.Addr().Host] = n
	}
	ingNode, setNode := byHost["n0000"], byHost["n0001"]

	frames := func(n *Node) uint64 {
		return n.Metrics().Snapshot().Counters["rbay_wal_set_frames_total"]
	}
	ingBase, setBase := frames(ingNode), frames(setNode)

	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}
	for _, k := range keys {
		if err := ingNode.IngestEnqueue(k, 1.0, "test", nil); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	drainIngest(t, fed, ingNode)
	for _, k := range keys {
		setNode.SetAttribute(k, 1.0)
	}
	fed.RunFor(100 * time.Millisecond)

	if got := frames(ingNode) - ingBase; got != 1 {
		t.Fatalf("ingest path wrote %d WAL set frames for %d keys, want 1", got, len(keys))
	}
	if got := frames(setNode) - setBase; got != uint64(len(keys)) {
		t.Fatalf("per-Set path wrote %d WAL set frames, want %d", got, len(keys))
	}
}

// TestIngestCrashMidBatchDurability is the chaos scenario from the issue
// checklist: a node crashes right after an ingest batch applied. With
// SyncAlways the whole batch must survive restart (it was one frame,
// acked only after the append); with the crash cutting the disk at the
// pre-batch watermark, the batch must vanish atomically — no partial
// prefix of it may ever be restored.
func TestIngestCrashMidBatchDurability(t *testing.T) {
	checkAllOrNothing := func(t *testing.T, attrs map[string]store.StoredAttr, keys []string) int {
		present := 0
		for _, k := range keys {
			if _, ok := attrs[k]; ok {
				present++
			}
		}
		if present != 0 && present != len(keys) {
			t.Fatalf("batch restored partially: %d of %d keys — durability must be all-or-nothing", present, len(keys))
		}
		return present
	}
	keys := []string{"b1", "b2", "b3", "b4", "b5"}

	t.Run("synced batch survives", func(t *testing.T) {
		fed, disks := storedFed(t, 4, store.SyncAlways, "n0000")
		n := fed.BySite["virginia"][0]
		acked := false
		for _, k := range keys {
			n.IngestEnqueue(k, 7.0, "test", func(err error) { acked = err == nil })
		}
		drainIngest(t, fed, n)
		if !acked {
			t.Fatal("batch never acked")
		}
		dir := disks["n0000"]
		_ = n.Close()
		dir.Crash()
		_, state, err := store.Open(dir, store.Options{Policy: store.SyncAlways})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := checkAllOrNothing(t, state.Attrs, keys); got != len(keys) {
			t.Fatalf("acked SyncAlways batch lost: %d of %d keys survived", got, len(keys))
		}
	})

	t.Run("unsynced batch drops atomically", func(t *testing.T) {
		fed, disks := storedFed(t, 4, store.SyncNever, "n0000")
		n := fed.BySite["virginia"][0]
		for _, k := range keys {
			n.IngestEnqueue(k, 7.0, "test", nil)
		}
		drainIngest(t, fed, n)
		dir := disks["n0000"]
		_ = n.Close()
		dir.Crash() // cuts back to the synced watermark: before the batch
		_, state, err := store.Open(dir, store.Options{Policy: store.SyncNever})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := checkAllOrNothing(t, state.Attrs, keys); got != 0 {
			t.Fatalf("unsynced batch partially survived: %d keys", got)
		}
	})
}

// TestIngestEnqueueOffContext exercises the documented thread-safety
// contract: producers enqueue from their own goroutines while the node's
// event loop applies.
func TestIngestEnqueueOffContext(t *testing.T) {
	fed := newTestFed(t, []string{"virginia"}, 4)
	n := fed.BySite["virginia"][1]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = n.IngestEnqueue("offctx", float64(i), "producer", nil)
		}
	}()
	<-done
	drainIngest(t, fed, n)
	if v, _ := n.Attributes().Get("offctx"); v != 49.0 {
		t.Fatalf("offctx = %v, want 49 (latest producer write)", v)
	}
}
