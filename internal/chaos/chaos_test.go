package chaos

import (
	"strings"
	"testing"
	"time"

	"rbay/internal/simnet"
)

var smokeSites = []string{"virginia", "tokyo"}

// smokeScenarios is one small scripted scenario per fault kind. Each runs
// in well under two seconds of wall clock (the federation is small and
// virtual time is cheap), so they all run in -short mode as the chaos
// suite's smoke tier.
func smokeScenarios() []Scenario {
	return []Scenario{
		{
			Name: "smoke-crash", Seed: 101,
			Steps: []Step{
				{At: 1 * time.Second, Kind: Crash, Site: "virginia"},
				{At: 2 * time.Second, Kind: Crash, Site: "tokyo", Count: 2},
			},
		},
		{
			Name: "smoke-restart", Seed: 102,
			Steps: []Step{
				{At: 1 * time.Second, Kind: Crash, Site: "virginia", Count: 2},
				{At: 4 * time.Second, Kind: Restart, Site: "virginia"},
				{At: 5 * time.Second, Kind: Restart, Site: "virginia"},
			},
		},
		{
			Name: "smoke-partition-heal", Seed: 103,
			// Tombstones from the partition window live failedTTL (30s);
			// settle must outlast them so re-learning completes.
			Settle: 45 * time.Second,
			Steps: []Step{
				{At: 1 * time.Second, Kind: Partition, Site: "virginia", Peer: "tokyo"},
				{At: 9 * time.Second, Kind: Heal, Site: "virginia", Peer: "tokyo"},
			},
		},
		{
			Name: "smoke-degrade", Seed: 104,
			Settle:   45 * time.Second,
			AggSlack: 1,
			Steps: []Step{
				{At: 1 * time.Second, Kind: Degrade, Site: "tokyo", Rule: simnet.Rule{
					Drop:          0.15,
					Dup:           0.10,
					Jitter:        40 * time.Millisecond,
					Reorder:       0.25,
					ReorderWindow: 150 * time.Millisecond,
				}},
				{At: 7 * time.Second, Kind: Undegrade, Site: "tokyo"},
			},
		},
	}
}

func TestSmokeScenarios(t *testing.T) {
	for _, scn := range smokeScenarios() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			res, err := Run(scn, Options{Sites: smokeSites, NodesPerSite: 6})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.Counters.Counter("checks.routing") == 0 {
				t.Error("quiescent checks never ran")
			}
		})
	}
}

// TestRandomCampaignDeterministicReplay pins the harness's core promise:
// the same seed replays the identical campaign, byte for byte, including
// every fault decision and every check outcome.
func TestRandomCampaignDeterministicReplay(t *testing.T) {
	run := func() []string {
		scn := RandomScenario(42, 15, smokeSites)
		scn.Settle = 45 * time.Second
		res, err := Run(scn, Options{Sites: smokeSites, NodesPerSite: 6, Churn: true, Passwords: true})
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

// TestPlantedViolationDetectedAndReproduces validates the checkers
// themselves: a covert node kill the harness's bookkeeping does not know
// about must be flagged at quiescence, with the seed and step trace, and
// the failure must replay identically.
func TestPlantedViolationDetectedAndReproduces(t *testing.T) {
	run := func() *Result {
		scn := RandomScenario(7, 8, smokeSites)
		scn.Settle = 45 * time.Second
		res, err := Run(scn, Options{Sites: smokeSites, NodesPerSite: 6, PlantStep: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if !res.Failed() {
		t.Fatal("planted covert crash was not detected by any invariant checker")
	}
	v := res.Violations[0]
	if v.Seed != 7 {
		t.Errorf("violation seed = %d, want 7", v.Seed)
	}
	if v.Step == 0 {
		t.Error("violation carries no step index")
	}
	if len(v.Trace) == 0 {
		t.Error("violation carries no step trace")
	}
	planted := false
	for _, line := range v.Trace {
		if strings.Contains(line, "plant covert-crash") {
			planted = true
		}
	}
	if !planted {
		t.Error("step trace does not include the planted kill")
	}

	res2 := run()
	if len(res2.Violations) != len(res.Violations) {
		t.Fatalf("replay found %d violations, first run %d", len(res2.Violations), len(res.Violations))
	}
	for i := range res.Violations {
		if res.Violations[i].String() != res2.Violations[i].String() {
			t.Fatalf("violation %d differs between replays:\n  %s\n  %s",
				i, res.Violations[i], res2.Violations[i])
		}
	}
}

// TestCrashSafetyFloors checks the harness never crashes a site below two
// live nodes or its last live boundary router — over-aggressive schedules
// degrade into recorded skips instead.
func TestCrashSafetyFloors(t *testing.T) {
	var steps []Step
	for i := 0; i < 12; i++ {
		steps = append(steps, Step{At: time.Duration(i+1) * 500 * time.Millisecond, Kind: Crash, Site: "virginia"})
	}
	scn := Scenario{Name: "floors", Seed: 9, Steps: steps}
	h, err := New(scn, Options{Sites: smokeSites, NodesPerSite: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Run()
	liveVirginia := len(h.liveSite("virginia"))
	if liveVirginia < 2 {
		t.Fatalf("virginia left with %d live nodes, floor is 2", liveVirginia)
	}
	liveRouters := 0
	for _, r := range h.fed.Directory.Routers["virginia"] {
		if _, ok := h.live[r.String()]; ok {
			liveRouters++
		}
	}
	if liveRouters < 1 {
		t.Fatal("virginia left with no live boundary router")
	}
	if res.Counters.Counter("faults.skipped") == 0 {
		t.Error("over-aggressive schedule recorded no skips")
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
}

// TestFederationStaysQueryableUnderChaos is the original core chaos test
// rebuilt on the harness: attribute churn, password policies, a router
// crash among a wave of failures — the plane must keep answering queries
// with live, non-double-allocated candidates. The heavier federation makes
// it a long-mode test; the smoke scenarios above cover -short.
func TestFederationStaysQueryableUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	scn := Scenario{
		Name: "queryable-under-chaos",
		Seed: 77,
		// One router is crash-eligible per site (the other is floor-kept),
		// plus steady worker attrition and a lossy spell.
		Steps: []Step{
			{At: 1 * time.Second, Kind: Crash, Site: "tokyo", Count: 2},
			{At: 2 * time.Second, Kind: Degrade, Site: "tokyo", Rule: simnet.Rule{
				Drop: 0.1, Dup: 0.05, Jitter: 60 * time.Millisecond,
				Reorder: 0.2, ReorderWindow: 200 * time.Millisecond,
			}},
			{At: 4 * time.Second, Kind: Crash, Site: "virginia", Count: 2},
			{At: 6 * time.Second, Kind: Crash, Site: "tokyo"},
			{At: 8 * time.Second, Kind: Undegrade, Site: "tokyo"},
			{At: 9 * time.Second, Kind: Restart, Site: "tokyo"},
		},
		Settle:   45 * time.Second,
		AggSlack: 2,
		Queries:  12,
	}
	res, err := Run(scn, Options{
		Sites:        smokeSites,
		NodesPerSite: 20,
		Churn:        true,
		Passwords:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if got := res.Counters.Counter("queries.issued"); got != 12 {
		t.Errorf("queries.issued = %d, want 12", got)
	}
	if got := res.Counters.Counter("queries.nonempty"); got < 8 {
		t.Errorf("only %d/12 queries found anything", got)
	}
	if res.Counters.Counter("faults.crash") != 5 {
		t.Errorf("faults.crash = %d, want 5", res.Counters.Counter("faults.crash"))
	}
}

// TestHarnessCountersEmitted checks the harness reports its campaign
// through the metrics counter set: fault injections, invariant checks, and
// the network's fault statistics all land there.
func TestHarnessCountersEmitted(t *testing.T) {
	scn := smokeScenarios()[0]
	res, err := Run(scn, Options{Sites: smokeSites, NodesPerSite: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"faults.crash", "checks.passive", "checks.routing", "checks.leafsym",
		"checks.trees", "checks.aggregates", "checks.allocation", "checks.queryable",
		"net.sent", "net.delivered",
	} {
		if res.Counters.Counter(name) == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	if render := res.Counters.Snapshot().CounterTable(); !strings.Contains(render, "faults.crash") {
		t.Error("CounterTable() does not list the fault counters")
	}
}
