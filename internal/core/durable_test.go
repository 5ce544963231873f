package core

import (
	"testing"
	"time"

	"rbay/internal/pastry"
	"rbay/internal/store"
	"rbay/internal/transport"
)

// storedFed builds a single-site federation where chosen hosts get
// MemDir-backed stores, returning the federation and the disks by host.
func storedFed(t *testing.T, perSite int, policy store.SyncPolicy, hosts ...string) (*Federation, map[string]*store.MemDir) {
	t.Helper()
	want := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		want[h] = true
	}
	disks := make(map[string]*store.MemDir)
	fed, err := NewFederation(testRegistry(t), FedConfig{
		Sites:        []string{"virginia"},
		NodesPerSite: perSite,
		Node:         fastConfig(),
		Seed:         42,
		StoreFor: func(addr transport.Addr) Store {
			if !want[addr.Host] {
				return nil
			}
			dir := store.NewMemDir()
			disks[addr.Host] = dir
			l, _, err := store.Open(dir, store.Options{Policy: policy})
			if err != nil {
				t.Fatalf("open store for %s: %v", addr.Host, err)
			}
			return l
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range fed.BySite["virginia"] {
		n.SetAttribute("GPU", i%4 == 0)
		n.SetAttribute("CPU_utilization", float64(i%20)/20.0)
		n.SetAttribute("mem_gb", float64(4+i%8))
	}
	fed.Settle()
	return fed, disks
}

// restartNode crashes-and-revives host: closes the old node, cuts the
// disk at its synced watermark, and brings up a fresh node on the same
// address restored from the surviving store.
func restartNode(t *testing.T, fed *Federation, old *Node, dir *store.MemDir, policy store.SyncPolicy) *Node {
	t.Helper()
	addr := old.Addr()
	_ = old.Close()
	dir.Crash()
	l, state, err := store.Open(dir, store.Options{Policy: policy})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	cfg := fastConfig()
	cfg.Store = l
	n, err := fed.NewNode(addr, cfg)
	if err != nil {
		t.Fatalf("restart %s: %v", addr, err)
	}
	if err := n.Restore(state); err != nil {
		t.Fatalf("restore %s: %v", addr, err)
	}
	n.SetDirectory(fed.Directory)
	var seed *Node
	for _, s := range fed.BySite[addr.Site] {
		if s != old {
			seed = s
			break
		}
	}
	_ = n.Pastry().JoinGlobal(seed.Addr(), nil)
	_ = n.Pastry().JoinSite(seed.Addr(), nil)
	fed.RunFor(2 * time.Second)
	if !n.Pastry().Joined(pastry.GlobalScope) || !n.Pastry().Joined(addr.Site) {
		t.Fatalf("restarted %s did not re-join the overlay", addr)
	}
	n.Refederate()
	fed.RunFor(3 * time.Second)
	return n
}

// TestCrashRestartRestoresInventory: a store-backed node crashes; the
// revived node replays its disk, re-federates, and its resources are
// queryable again — with values, policy scripts, and tree membership all
// recovered.
func TestCrashRestartRestoresInventory(t *testing.T) {
	fed, disks := storedFed(t, 8, store.SyncAlways, "n0004")
	victim := fed.BySite["virginia"][4] // GPU node, not a router
	if err := victim.AttachPolicy("GPU", `
		AA = {Password = "pw"}
		function onGet(caller, password)
			if password == AA.Password then return NodeId end
			return nil
		end
	`); err != nil {
		t.Fatalf("attach: %v", err)
	}
	fed.RunFor(time.Second)

	origin := fed.BySite["virginia"][2]
	res := runQueryAs(t, fed, origin, `SELECT * FROM virginia WHERE GPU = true AND mem_gb >= 8;`, "cust", "pw")
	if res.Err != nil || len(res.Candidates) != 1 {
		t.Fatalf("pre-crash query = %+v, want exactly the victim (mem_gb=8 only on i=4)", res)
	}
	fed.RunFor(5 * time.Second) // let the reservation TTL lapse

	revived := restartNode(t, fed, victim, disks["n0004"], store.SyncAlways)
	if v, ok := revived.Attributes().Get("GPU"); !ok || v != true {
		t.Fatalf("GPU after restore = %v, %v", v, ok)
	}
	if v, ok := revived.Attributes().Get("mem_gb"); !ok || v != 8.0 {
		t.Fatalf("mem_gb after restore = %v, %v", v, ok)
	}
	if a, ok := revived.Attributes().Lookup("GPU"); !ok || !a.Active() {
		t.Fatal("policy script not re-attached on restore")
	}
	if len(revived.SubscribedTrees()) == 0 {
		t.Fatal("revived node joined no trees after Refederate")
	}

	res = runQueryAs(t, fed, origin, `SELECT * FROM virginia WHERE GPU = true AND mem_gb >= 8;`, "cust", "pw")
	if res.Err != nil || len(res.Candidates) != 1 {
		t.Fatalf("post-restart query = %+v, want the revived node back", res)
	}
	if res.Candidates[0].Addr != revived.Addr() {
		t.Fatalf("candidate = %v, want %v", res.Candidates[0].Addr, revived.Addr())
	}
}

// TestRestoreReconcilesLeases: lease reconciliation on restore — expired
// uncommitted leases are released (durably), in-flight ones re-armed,
// committed ones re-held.
func TestRestoreReconcilesLeases(t *testing.T) {
	fed, disks := storedFed(t, 6, store.SyncAlways, "n0002", "n0003", "n0004")
	now := fed.Net.Now()
	// plant appends a reservation to the host's disk through a second Log
	// handle, as if the node had recorded it before going down.
	plant := func(host, query string, expires time.Time, committed bool) {
		l, _, err := store.Open(disks[host], store.Options{Policy: store.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		l.RecordReserve(query, expires)
		if committed {
			l.RecordCommit(query)
		}
		l.Close()
	}
	nodes := fed.BySite["virginia"]
	plant("n0002", "expired-q", now.Add(-time.Second), false)
	plant("n0003", "inflight-q", now.Add(time.Hour), false)
	plant("n0004", "committed-q", now.Add(-time.Hour), true)

	expired := restartNode(t, fed, nodes[2], disks["n0002"], store.SyncAlways)
	if _, _, ok := expired.Reserved(); ok {
		t.Fatal("expired lease survived restore")
	}
	// The release must be durable: a second restart agrees.
	disks["n0002"].Crash()
	if _, st, err := store.Open(disks["n0002"], store.Options{}); err != nil || st.Reservation != nil {
		t.Fatalf("expired lease not durably released: %+v, %v", st.Reservation, err)
	}

	inflight := restartNode(t, fed, nodes[3], disks["n0003"], store.SyncAlways)
	if q, committed, ok := inflight.Reserved(); !ok || committed || q != "inflight-q" {
		t.Fatalf("in-flight lease not re-armed: %q %v %v", q, committed, ok)
	}
	if inflight.reserve("someone-else") {
		t.Fatal("re-armed lease did not block a competing reservation")
	}

	held := restartNode(t, fed, nodes[4], disks["n0004"], store.SyncAlways)
	if q, committed, ok := held.Reserved(); !ok || !committed || q != "committed-q" {
		t.Fatalf("committed lease not re-held: %q %v %v", q, committed, ok)
	}
	if held.reserve("someone-else") {
		t.Fatal("committed lease was double-honored after restart")
	}
}

// TestShutdownGraceful: Shutdown syncs a lazily-synced store, releases a
// releasable reservation durably, and leaves every tree.
func TestShutdownGraceful(t *testing.T) {
	fed, disks := storedFed(t, 6, store.SyncNever, "n0003")
	n := fed.BySite["virginia"][3]
	n.SetAttribute("scratch", "late-write")
	if !n.reserve("shutdown-q") {
		t.Fatal("reserve failed")
	}
	if err := n.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(n.SubscribedTrees()) != 0 {
		t.Fatalf("still subscribed after shutdown: %v", n.SubscribedTrees())
	}
	disks["n0003"].Crash()
	_, st, err := store.Open(disks["n0003"], store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Attrs["scratch"].Value != "late-write" {
		t.Fatal("shutdown did not sync pending writes")
	}
	if st.Reservation != nil {
		t.Fatalf("uncommitted reservation not released on shutdown: %+v", st.Reservation)
	}
}
