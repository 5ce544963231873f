package ops

// phase is the step an attempt runs and the retry budget it spends.
type phase uint8

const (
	phaseNone phase = iota // a restored record of a kind this build does not know
	phaseReserve
	phaseCommit
	phaseRelease
	phaseRollback // undoing a commit: release every candidate
	phaseAttrs
)

// outcome is what one step attempt reported.
type outcome uint8

const (
	outcomeOK        outcome = iota
	outcomeTransient         // another attempt may succeed
	outcomePermanent         // no attempt can succeed
	outcomeRefused           // commit only: an owner no longer holds the reservation
)

// action is what the engine does with the op next.
type action uint8

const (
	actFinish   action = iota // end the op in the returned State
	actRetry                  // run the phase again after backoff
	actRollback               // switch to phaseRollback with a fresh retry budget
)

// Placeholders a decide message may carry; the attempt driver fills them
// in: the step's own account of the attempt, the attempts spent on the
// phase, and the reason the rollback started.
const (
	msgDetail   = "{detail}"
	msgAttempts = "{attempts}"
	msgReason   = "{reason}"
)

// decide is the engine's whole policy: which phase an attempt was in, what
// it reported, whether that phase's retry budget is spent and whether a
// reserve already gave reservations back decide what happens to the op —
// and so to the lease it holds. The message becomes the op's Error when
// it finishes or while it waits to retry, and the rollback's reason when
// one starts. First matching row wins.
func decide(ph phase, out outcome, exhausted, rolledBack bool) (action, State, string) {
	switch {
	case out == outcomeOK && ph == phaseRollback:
		return actFinish, StateRolledBack, msgReason
	case out == outcomeOK:
		// detail is empty unless an attrs op had some updates rejected.
		return actFinish, StateDone, msgDetail
	case out == outcomePermanent:
		return actFinish, StateFailed, msgDetail
	case out == outcomeRefused:
		// All-or-nothing: undo the owners that did commit.
		return actRollback, StateRunning, msgDetail
	case !exhausted && ph == phaseReserve:
		return actRetry, StateRunning, msgDetail
	case !exhausted:
		return actRetry, StateRunning, ""
	case ph == phaseCommit:
		return actRollback, StateRunning, "commit incomplete after " + msgAttempts + " attempts: " + msgDetail
	case ph == phaseRelease:
		return actFinish, StateFailed, "release incomplete after " + msgAttempts + " attempts: " + msgDetail
	case ph == phaseRollback:
		return actFinish, StateRolledBack, msgReason + "; rollback incomplete: " + msgDetail + " (TTL frees uncommitted holds)"
	case rolledBack:
		return actFinish, StateRolledBack, msgDetail
	default:
		return actFinish, StateFailed, msgDetail
	}
}
