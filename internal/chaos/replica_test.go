package chaos

import (
	"fmt"
	"testing"
	"time"
)

// rootCrashScenario is the scripted replication scenario: a loaded GPU
// tree under continuous utilization churn loses its root mid-run, once
// while a cross-site partition is standing (so the promotion and the
// eventual heal both get exercised), and once in the clear. The
// aggregate-continuity watch runs inside each CrashRoot step; the
// quiescent replica-consistency checker then asserts the healed
// federation converged to exactly one root per tree.
func rootCrashScenario(seed int64) Scenario {
	return Scenario{
		Name:     fmt.Sprintf("root-crash-%d", seed),
		Seed:     seed,
		AggSlack: 2,
		// Outlast the partition window's failure tombstones (30s) so
		// re-learning completes before the quiescent suite.
		Settle: 45 * time.Second,
		Steps: []Step{
			{At: 1 * time.Second, Kind: Partition, Site: "virginia", Peer: "tokyo"},
			{At: 3 * time.Second, Kind: CrashRoot, Site: "virginia", Tree: "GPU"},
			{At: 9 * time.Second, Kind: Heal, Site: "virginia", Peer: "tokyo"},
			{At: 11 * time.Second, Kind: CrashRoot, Site: "tokyo", Tree: "util<50%"},
		},
	}
}

// TestRootCrashReplicaPromotes runs the scripted scenario once: the
// replica must promote with aggregates continuous, and the quiescent
// suite (including replica-consistency) must pass clean.
func TestRootCrashReplicaPromotes(t *testing.T) {
	res, err := Run(rootCrashScenario(11), Options{Sites: smokeSites, NodesPerSite: 8, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if got := res.Counters.Counter("faults.crashroot"); got == 0 {
		t.Error("no root was crashed (both CrashRoot steps skipped)")
	}
	if got := res.Counters.Counter("checks.continuity"); got == 0 {
		t.Error("aggregate-continuity watch never armed")
	}
	if got := res.Counters.Counter("checks.replicas"); got == 0 {
		t.Error("replica-consistency checker never ran")
	}
	if got := res.Metrics.Counters["scribe_root_promotions_total"]; got == 0 {
		t.Error("no replica ever promoted: crashes were absorbed without the replication path")
	}
}

// TestRootCrashCampaign sweeps the root-crash schedule across seeds:
// every seed must pass with zero violations — in particular zero
// aggregate-continuity violations, the regression the root replication
// protocol exists to prevent. Full mode runs 50 seeds (the acceptance
// gate); -short keeps a deterministic 6-seed slice for CI smoke.
func TestRootCrashCampaign(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			scn := Scenario{
				Name:     fmt.Sprintf("root-crash-campaign-%d", seed),
				Seed:     seed,
				AggSlack: 2,
				Steps: []Step{
					{At: 1 * time.Second, Kind: CrashRoot, Site: "virginia", Tree: "GPU"},
					{At: 7 * time.Second, Kind: CrashRoot, Site: "tokyo", Tree: "util<50%"},
					{At: 13 * time.Second, Kind: Crash, Site: "virginia"},
				},
			}
			res, err := Run(scn, Options{Sites: smokeSites, NodesPerSite: 8, Churn: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
		})
	}
}
