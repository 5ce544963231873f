package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"rbay/internal/ops"
)

// GatewayResult is the outcome of one gateway-crash run.
type GatewayResult struct {
	// Violations carries every invariant failure, reproducible from Seed.
	Violations []Violation
	Seed       int64
	// Submitted/Requeued/Committed count accepted ops, ops replayed from
	// the WAL after the crash, and committed leases at quiescence.
	Submitted int
	Requeued  int
	Committed int
	// Ops is the terminal op log from the restarted engine.
	Ops []Op
	Log []string
}

// Op mirrors ops.Op minimally for result reporting.
type Op struct {
	ID      string
	Kind    string
	State   string
	QueryID string
	Error   string
}

// Failed reports whether any invariant was violated.
func (r *GatewayResult) Failed() bool { return len(r.Violations) > 0 }

// gatewayOpsConfig is the chaos-tuned engine configuration: short step
// deadlines and backoff so a run converges in seconds of virtual time.
func gatewayOpsConfig() ops.Config {
	return ops.Config{
		Workers:     4,
		QueueMax:    64,
		StepTimeout: 2 * time.Second,
		RetryMax:    3,
		RetryBase:   100 * time.Millisecond,
		RetryCap:    time.Second,
	}
}

// RunGatewayCrash drives the gateway-crash scenario for one seed: a
// durable node hosts a pending-operations engine, a seeded workload of
// reserve ops and FromOp-bound commits is submitted with the simulation
// advancing a random slice between submissions, then the gateway node is
// power-cut mid-flight — between accepting operations and completing
// them — and restarted from its disk. The rebuilt engine replays the
// recovered op records (exactly what cmd/rbayd does on boot) and the run
// drives everything to quiescence before checking the crash-safety
// invariants:
//
//   - every accepted operation reaches a terminal state;
//   - every committed lease in the federation maps to a done commit op
//     (no orphaned reservation: nothing is held that no completed
//     operation accounts for);
//   - no rolled-back commit op left a committed lease behind;
//   - no uncommitted reservation survives past its TTL.
func RunGatewayCrash(seed int64) (*GatewayResult, error) {
	h, err := New(Scenario{Name: "gateway-crash", Seed: seed, Settle: 8 * time.Second},
		Options{Sites: []string{"virginia"}, NodesPerSite: 8, Durable: true})
	if err != nil {
		return nil, err
	}
	// A separate stream from the harness's own RNG: the workload shape
	// must not perturb fault-selection determinism elsewhere.
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))

	elig := h.crashEligible("virginia")
	if len(elig) == 0 {
		return nil, fmt.Errorf("chaos: no crash-eligible gateway node")
	}
	gw := elig[rng.Intn(len(elig))]
	key := gw.Addr().String()
	eng := ops.NewEngine(gw, h.logs[key], gatewayOpsConfig())

	// Seeded workload: reserve ops, each chased by a commit bound to it
	// via FromOp, with random slices of virtual time in between so the
	// crash lands at a different lifecycle phase every seed — some pairs
	// fully done, some with leases held but the commit still queued, some
	// with the reserve query itself mid-flight.
	submitted := 0
	nPairs := 3 + rng.Intn(3)
	for i := 0; i < nPairs; i++ {
		snap, err := eng.Submit(ops.Request{
			Kind:    ops.KindReserve,
			Tenant:  "chaos",
			IdemKey: fmt.Sprintf("job-%d", i),
			Query:   fmt.Sprintf("SELECT %d FROM virginia WHERE GPU = true;", 1+rng.Intn(2)),
		})
		if err != nil {
			continue
		}
		submitted++
		h.net.RunFor(time.Duration(rng.Int63n(int64(120 * time.Millisecond))))
		if _, err := eng.Submit(ops.Request{Kind: ops.KindCommit, FromOp: snap.ID, Tenant: "chaos"}); err == nil {
			submitted++
		}
		h.net.RunFor(time.Duration(rng.Int63n(int64(80 * time.Millisecond))))
	}

	// Power-cut the gateway between accept and completion.
	_ = gw.Close()
	h.disks[key].Crash()
	delete(h.live, key)
	h.down[key] = gw.Addr()
	h.counters.Inc("faults.crash")
	h.step("crash gateway node=" + key)
	h.net.RunFor(2 * time.Second)

	// Restart from disk and let it rejoin before the engine replays —
	// the same order cmd/rbayd uses (store → node restore → join →
	// engine restore).
	h.restartOne("virginia")
	n2, ok := h.live[key]
	if !ok {
		return nil, fmt.Errorf("chaos: gateway %s not revived", key)
	}
	h.net.RunFor(3 * time.Second)
	eng2 := ops.NewEngine(n2, h.logs[key], gatewayOpsConfig())
	requeued := eng2.Restore(h.restoredState[key].Ops)
	h.logf("gateway restore requeued=%d", requeued)

	// Drive the replayed ops to quiescence.
	deadline := h.net.Now().Add(60 * time.Second)
	for h.net.Now().Before(deadline) {
		if eng2.QueueDepth() == 0 {
			break
		}
		h.net.RunFor(500 * time.Millisecond)
	}
	// Let every uncommitted hold from half-done attempts expire, then
	// settle.
	h.net.RunFor(h.opts.Node.ReserveTTL + h.scn.Settle)

	h.checkGatewayOps(eng2)

	res := &GatewayResult{Seed: seed, Submitted: submitted, Requeued: requeued, Log: h.logLines}
	res.Violations = h.violations
	for _, op := range eng2.List() {
		res.Ops = append(res.Ops, Op{
			ID: op.ID, Kind: string(op.Kind), State: string(op.State),
			QueryID: op.QueryID, Error: op.Error,
		})
	}
	for _, n := range h.liveSorted() {
		if _, committed, held := n.Reserved(); held && committed {
			res.Committed++
		}
	}
	return res, nil
}

// checkGatewayOps is the gateway crash-safety invariant: run at
// quiescence, it asserts the engine's op log and the federation's leases
// tell one consistent story.
func (h *Harness) checkGatewayOps(eng *ops.Engine) {
	h.counters.Inc("checks.gatewayops")
	doneCommits := make(map[string]bool)
	rolledBack := make(map[string]string) // queryID → op ID
	for _, op := range eng.List() {
		if !op.State.Terminal() {
			h.violate("gateway-ops", fmt.Sprintf("op %s (%s) stuck in %s after quiescence", op.ID, op.Kind, op.State))
			continue
		}
		if op.Kind != ops.KindCommit || op.QueryID == "" {
			continue
		}
		switch op.State {
		case ops.StateDone:
			doneCommits[op.QueryID] = true
		case ops.StateRolledBack:
			rolledBack[op.QueryID] = op.ID
		}
	}
	for _, n := range h.liveSorted() {
		q, committed, held := n.Reserved()
		if !held {
			continue
		}
		if !committed {
			h.violate("gateway-ops", fmt.Sprintf("node %s holds uncommitted lease %q past TTL at quiescence", n.Addr(), q))
			continue
		}
		if !doneCommits[q] {
			h.violate("gateway-ops", fmt.Sprintf("node %s holds committed lease %q with no done commit op — orphaned reservation", n.Addr(), q))
		}
		if id, rb := rolledBack[q]; rb && !doneCommits[q] {
			h.violate("gateway-ops", fmt.Sprintf("rolled-back commit op %s left committed lease %q on %s", id, q, n.Addr()))
		}
	}
}
