package chaos

import (
	"testing"
	"time"

	"rbay/internal/store"
)

// durableSmoke is the scripted restart-with-disk scenario: one crash and
// one recovery per site, with enough settle for re-federation.
func durableSmoke(seed int64) Scenario {
	return Scenario{
		Name: "durable-restart", Seed: seed,
		Steps: []Step{
			{At: 1 * time.Second, Kind: Crash, Site: "virginia"},
			{At: 2 * time.Second, Kind: Crash, Site: "tokyo"},
			{At: 5 * time.Second, Kind: Restart, Site: "virginia"},
			{At: 6 * time.Second, Kind: Restart, Site: "tokyo"},
		},
	}
}

// TestDurableRestartSmoke: disk-backed nodes crash and recover from their
// stores under every fsync policy; the durability invariant must hold —
// nothing durably posted before the schedule is lost, and restored nodes
// answer queries again. Short-mode: this is the chaos-restart smoke tier.
func TestDurableRestartSmoke(t *testing.T) {
	policies := []struct {
		name string
		opts Options
	}{
		{"always", Options{Durable: true, Fsync: store.SyncAlways}},
		{"interval", Options{Durable: true, Fsync: store.SyncInterval, FsyncInterval: 200 * time.Millisecond}},
		{"never", Options{Durable: true, Fsync: store.SyncNever}},
	}
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) {
			opts := p.opts
			opts.Sites = smokeSites
			opts.NodesPerSite = 6
			opts.Passwords = true
			res, err := Run(durableSmoke(201), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			if got := res.Counters.Counter("faults.restart"); got != 2 {
				t.Errorf("faults.restart = %d, want 2", got)
			}
			if res.Counters.Counter("checks.durability") == 0 {
				t.Error("durability invariant never ran")
			}
		})
	}
}

// TestCrashMidCommitLeaseReArmed replays the torn-commit schedule: a node
// durably records a reservation, the commit record is still in the disk's
// write cache when the power cuts. On restart the lease must come back
// re-armed but uncommitted — still blocking competing reservations until
// its stored expiry — and must never count as a committed hand-out. A
// second node whose commit *did* reach the platter must re-hold the
// committed lease and never be handed out again.
func TestCrashMidCommitLeaseReArmed(t *testing.T) {
	h, err := New(Scenario{Name: "mid-commit", Seed: 202}, Options{
		Sites: smokeSites, NodesPerSite: 6, Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	crashPlant := func(site, query string, commitSynced bool) string {
		h.crashOne(site)
		var key string
		for k, a := range h.down {
			if a.Site == site {
				key = k
			}
		}
		if key == "" {
			t.Fatalf("no %s node down after crashOne", site)
		}
		// Re-create the moment of failure on the dead node's disk: the
		// reservation reached the platter, the commit may not have.
		l, _, err := store.Open(h.disks[key], store.Options{Policy: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		l.RecordReserve(query, h.net.Now().Add(time.Hour))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.RecordCommit(query)
		if commitSynced {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		h.disks[key].Crash() // power cut: unsynced commit torn away
		return key
	}
	torn := crashPlant("virginia", "mid-q", false)
	held := crashPlant("tokyo", "done-q", true)

	h.restartOne("virginia")
	h.restartOne("tokyo")
	h.net.RunFor(8 * time.Second)

	n, ok := h.live[torn]
	if !ok {
		t.Fatalf("%s not revived", torn)
	}
	if q, committed, reserved := n.Reserved(); !reserved || committed || q != "mid-q" {
		t.Fatalf("torn commit: lease = %q committed=%v reserved=%v, want mid-q re-armed uncommitted",
			q, committed, reserved)
	}
	if _, tracked := h.leased[torn]; tracked {
		t.Error("uncommitted lease tracked as committed by the harness")
	}
	if q, committed, reserved := h.live[held].Reserved(); !reserved || !committed || q != "done-q" {
		t.Fatalf("synced commit: lease = %q committed=%v reserved=%v, want done-q re-held committed",
			q, committed, reserved)
	}
	if h.leased[held] != "done-q" {
		t.Fatalf("harness not tracking the re-held committed lease: %v", h.leased)
	}

	// The full quiescent suite — including the query checkers that would
	// flag either lease being handed to a new query — must pass clean.
	h.net.RunFor(h.scn.Settle)
	h.checkQuiescent()
	for _, v := range h.violations {
		t.Error(v)
	}
}

// TestCorruptWALTailRestartRecovers: durable garbage at the end of a dead
// node's WAL — a torn frame the disk controller half-wrote — must not
// poison recovery: the restart replays every record before the tear and
// the fidelity check passes.
func TestCorruptWALTailRestartRecovers(t *testing.T) {
	h, err := New(Scenario{Name: "corrupt-tail", Seed: 203}, Options{
		Sites: smokeSites, NodesPerSite: 6, Durable: true, Passwords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.crashOne("virginia")
	var key string
	for k := range h.down {
		key = k
	}
	// A frame header promising 16 bytes, a bogus CRC, and 2 bytes of body.
	h.disks[key].AppendSynced(store.WALName,
		[]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'})

	h.restartOne("virginia")
	h.net.RunFor(8 * time.Second)

	n, ok := h.live[key]
	if !ok {
		t.Fatalf("%s did not come back from a corrupt-tail disk", key)
	}
	for _, v := range h.violations {
		t.Error(v) // restartOne's fidelity check must not have fired
	}
	for name, want := range h.durableBase[key] {
		if got, present := n.Attributes().Get(name); !present || got != want {
			t.Errorf("%s=%v lost behind the torn tail (got %v, present=%v)", name, want, got, present)
		}
	}
	// And the truncation is durable: the next open sees a clean log.
	h.disks[key].Crash()
	if _, _, err := store.Open(h.disks[key], store.Options{}); err != nil {
		t.Fatalf("WAL still poisoned after recovery: %v", err)
	}
}

// TestDurableCampaignDeterministicReplay extends the determinism promise
// to durable mode: disk contents, recovery, and re-federation are all a
// pure function of the seed.
func TestDurableCampaignDeterministicReplay(t *testing.T) {
	run := func() []string {
		scn := RandomScenario(42, 12, smokeSites)
		scn.Settle = 45 * time.Second
		res, err := Run(scn, Options{
			Sites: smokeSites, NodesPerSite: 6,
			Durable: true, Churn: true, Passwords: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty event log")
	}
	if len(a) != len(b) {
		t.Fatalf("replay log length diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at line %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
