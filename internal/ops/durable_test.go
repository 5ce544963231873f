package ops

import (
	"errors"
	"testing"
	"time"

	"rbay/internal/core"
	"rbay/internal/store"
	"rbay/internal/transport"
)

// storedFed is newFed with the engine's node recording into a WAL on an
// in-memory disk — the WAL the engine shares, as in rbayd.
func storedFed(t *testing.T) (*core.Federation, *store.Log, *store.MemDir) {
	t.Helper()
	disk := store.NewMemDir()
	log, _, err := store.Open(disk, store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := core.NewFederation(testRegistry(t), core.FedConfig{
		Sites:        []string{"lab"},
		NodesPerSite: 12,
		Node:         fastConfig(),
		Seed:         7,
		StoreFor: func(addr transport.Addr) core.Store {
			if addr.Host == "n0000" {
				return log
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range fed.BySite["lab"] {
		n.SetAttribute("GPU", i%4 == 0)
	}
	fed.Settle()
	return fed, log, disk
}

// TestTerminalStateWaitsForItsRecord is the engine's share of "no ack
// without a durable frame": an op whose terminal record cannot be
// persisted never reads done (or anything terminal), its dependents stay
// parked, and the engine refuses new submissions with ErrStoreFailed
// instead of accepting ops it cannot record.
func TestTerminalStateWaitsForItsRecord(t *testing.T) {
	fed, log, disk := storedFed(t)
	e := testEngine(fed, log, Config{})

	good, err := e.Submit(Request{Kind: KindAttrs, Updates: []Update{{Name: "rack", Value: "r1"}}})
	if err != nil {
		t.Fatal(err)
	}
	driveUntil(t, fed, "healthy op done", terminal(e, good.ID))
	// done is only ever visible once durable: a power cut now keeps it.
	_, st, err := store.Open(disk.CrashCopy(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops[good.ID].State != string(StateDone) {
		t.Fatalf("op read done but its record on disk says %q", st.Ops[good.ID].State)
	}

	res, err := e.Submit(Request{Kind: KindReserve, Query: "SELECT 1 FROM lab WHERE GPU = true;"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := e.Submit(Request{Kind: KindRelease, FromOp: res.ID})
	if err != nil {
		t.Fatal(err)
	}
	disk.SetFaults(store.Faults{Sync: errors.New("injected fsync error")})
	fed.RunFor(30 * time.Second)
	for _, id := range []string{res.ID, dep.ID} {
		if op, _ := e.Get(id); op.State.Terminal() {
			t.Fatalf("op %s reads %q though no terminal record reached the disk", id, op.State)
		}
	}
	if err := fed.BySite["lab"][0].StoreErr(); !errors.Is(err, core.ErrStoreFailed) {
		t.Fatalf("node StoreErr = %v, want ErrStoreFailed", err)
	}
	if _, err := e.Submit(Request{Kind: KindAttrs, Updates: []Update{{Name: "rack", Value: "r2"}}}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Submit on a failed store = %v, want ErrStoreFailed", err)
	}
	if n := len(e.List()); n != 3 {
		t.Fatalf("engine lists %d ops, want the 3 accepted before the failure", n)
	}
}

// TestSubmitRejectsUnrecordedOp: the fault hits the submission's own
// record. The caller gets ErrStoreFailed, and the op is neither listed,
// nor deduplicated against, nor run.
func TestSubmitRejectsUnrecordedOp(t *testing.T) {
	fed, log, disk := storedFed(t)
	e := testEngine(fed, log, Config{})
	disk.SetFaults(store.Faults{Write: errors.New("injected write error")})
	req := Request{Kind: KindAttrs, IdemKey: "k", Updates: []Update{{Name: "rack", Value: "r9"}}}
	if _, err := e.Submit(req); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Submit = %v, want ErrStoreFailed", err)
	}
	fed.RunFor(5 * time.Second)
	if n := len(e.List()); n != 0 || e.QueueDepth() != 0 {
		t.Fatalf("rejected op is still known: %d listed, depth %d", n, e.QueueDepth())
	}
	if v, ok := fed.BySite["lab"][0].Attributes().Get("rack"); ok {
		t.Fatalf("rejected op ran: rack = %v", v)
	}
}
