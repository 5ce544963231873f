package ops

import "testing"

// TestDecisionTable has one case per row of decide, in the table's order,
// then sweeps the whole input space for the properties every row must
// keep.
func TestDecisionTable(t *testing.T) {
	rows := []struct {
		name       string
		ph         phase
		out        outcome
		exhausted  bool
		rolledBack bool
		act        action
		state      State
		msg        string
	}{
		{"rollback acked", phaseRollback, outcomeOK, false, false, actFinish, StateRolledBack, "{reason}"},
		{"step succeeded", phaseCommit, outcomeOK, true, false, actFinish, StateDone, "{detail}"},
		{"cannot succeed", phaseReserve, outcomePermanent, false, true, actFinish, StateFailed, "{detail}"},
		{"commit refused", phaseCommit, outcomeRefused, false, false, actRollback, StateRunning, "{detail}"},
		{"reserve retries and says why", phaseReserve, outcomeTransient, false, false, actRetry, StateRunning, "{detail}"},
		{"ack step retries", phaseRelease, outcomeTransient, false, false, actRetry, StateRunning, ""},
		{"commit out of attempts", phaseCommit, outcomeTransient, true, false, actRollback, StateRunning, "commit incomplete after {attempts} attempts: {detail}"},
		{"release out of attempts", phaseRelease, outcomeTransient, true, false, actFinish, StateFailed, "release incomplete after {attempts} attempts: {detail}"},
		{"rollback out of attempts", phaseRollback, outcomeTransient, true, false, actFinish, StateRolledBack, "{reason}; rollback incomplete: {detail} (TTL frees uncommitted holds)"},
		{"reserve out of attempts, gave holds back", phaseReserve, outcomeTransient, true, true, actFinish, StateRolledBack, "{detail}"},
		{"reserve out of attempts", phaseReserve, outcomeTransient, true, false, actFinish, StateFailed, "{detail}"},
	}
	for _, r := range rows {
		act, state, msg := decide(r.ph, r.out, r.exhausted, r.rolledBack)
		if act != r.act || state != r.state || msg != r.msg {
			t.Errorf("%s: decide = (%d, %q, %q), want (%d, %q, %q)", r.name, act, state, msg, r.act, r.state, r.msg)
		}
	}

	for ph := phaseNone; ph <= phaseAttrs; ph++ {
		for out := outcomeOK; out <= outcomeRefused; out++ {
			for _, exhausted := range []bool{false, true} {
				for _, rolledBack := range []bool{false, true} {
					act, state, _ := decide(ph, out, exhausted, rolledBack)
					if (act == actFinish) != state.Terminal() {
						t.Errorf("decide(%d,%d,%v,%v): action %d with state %q", ph, out, exhausted, rolledBack, act, state)
					}
					if out == outcomeOK && (act != actFinish || state == StateFailed) {
						t.Errorf("decide(%d,%d,%v,%v): a successful step ended (%d, %q)", ph, out, exhausted, rolledBack, act, state)
					}
					if out == outcomeTransient && (act == actRetry) == exhausted {
						t.Errorf("decide(%d,%d,%v,%v): retry = %v", ph, out, exhausted, rolledBack, act == actRetry)
					}
				}
			}
		}
	}
}
