package ops

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rbay/internal/core"
	"rbay/internal/query"
)

// result is one step attempt's report. queryID, cands and shortfall are a
// reserve attempt's reservations: kept on the op when the attempt
// succeeded in time, released otherwise.
type result struct {
	outcome   outcome
	detail    string
	queryID   string
	cands     []core.Candidate
	shortfall int
}

// step performs one attempt of a phase and reports once, on the node's
// event context. Steps never touch the op's attempts or state.
type step func(report func(result))

// holds reports whether the attempt took reservations.
func (r result) holds() bool { return r.queryID != "" && len(r.cands) > 0 }

// attempt runs one attempt of o's current phase and acts on what decide
// makes of its result. Attempts are counted, given a generation, closed
// by their first report and checked for staleness here and nowhere else.
// Node event context only.
func (e *Engine) attempt(o *op) {
	e.mu.Lock()
	ph, live := o.phase(), o.running()
	e.mu.Unlock()
	if !live {
		// Ended while this attempt was waiting out its backoff.
		return
	}
	var (
		run  step
		fail string
	)
	switch ph {
	case phaseReserve:
		run, fail = e.reserveStep(o)
	case phaseCommit, phaseRelease, phaseRollback:
		run, fail = e.ackStep(o, ph == phaseCommit)
	case phaseAttrs:
		run, fail = e.attrsStep(o)
	default:
		fail = "unknown kind " + string(o.Kind)
	}
	if run == nil {
		// Nothing to attempt: the op cannot run at all, or ackStep parked it.
		if fail != "" {
			e.settle(o, ph, result{outcome: outcomePermanent, detail: fail})
		}
		return
	}

	e.mu.Lock()
	// An attrs op has no retry budget to count against.
	if ph != phaseAttrs {
		o.Attempts++
	}
	gen := o.Attempts
	// One report per attempt: the deadline and the step's own result race,
	// and whichever comes second — even before the retry's backoff has
	// started the next attempt — is stale.
	reported := false
	report := func(r result) {
		e.mu.Lock()
		stale := reported || o.Attempts != gen || o.phase() != ph || !o.running()
		reported = true
		if !stale && o.deadline != nil {
			o.deadline()
			o.deadline = nil
		}
		e.mu.Unlock()
		if r.holds() && (stale || r.outcome != outcomeOK) {
			// What a late attempt reserved, or a failed round reserved in
			// part, is freed now instead of staying locked until TTL.
			e.node.Release(r.queryID, r.cands)
		}
		if !stale {
			e.settle(o, ph, r)
		}
	}
	if ph == phaseReserve {
		o.deadline = e.node.Pastry().After(e.cfg.StepTimeout, func() {
			report(result{outcome: outcomeTransient, detail: "reserve deadline exceeded"})
		})
	}
	e.mu.Unlock()
	run(report)
}

// settle records a live attempt's result on o and carries out decide's
// verdict. Node event context only.
func (e *Engine) settle(o *op, ph phase, r result) {
	e.mu.Lock()
	switch {
	case ph == phaseReserve && r.outcome == outcomeOK:
		o.QueryID, o.Candidates, o.Shortfall = r.queryID, fromCoreCandidates(r.cands), r.shortfall
	case r.holds():
		o.rolledBack = true
	}
	n := o.Attempts
	act, state, msg := decide(ph, r.outcome, n >= e.cfg.RetryMax, o.rolledBack)
	msg = strings.NewReplacer(msgDetail, r.detail, msgAttempts, strconv.Itoa(n), msgReason, o.rollbackReason).Replace(msg)
	switch {
	case act == actRetry && msg != "":
		o.Error = msg
	case act == actRollback:
		o.rollbackReason, o.Attempts = msg, 0
	}
	e.mu.Unlock()

	switch act {
	case actFinish:
		e.finish(o, state, msg)
	case actRetry:
		e.retry(o, n)
	case actRollback:
		e.attempt(o)
	}
}

// retry schedules o's next attempt under truncated exponential backoff.
// Node event context only.
func (e *Engine) retry(o *op, attempts int) {
	e.m.Inc("rbay_ops_retries_total")
	backoff := e.cfg.RetryBase << uint(attempts-1)
	if backoff > e.cfg.RetryCap || backoff <= 0 {
		backoff = e.cfg.RetryCap
	}
	e.node.Pastry().After(backoff, func() { e.attempt(o) })
}

// reserveStep is one run of o's query. A nil step comes with the reason
// the op cannot run.
func (e *Engine) reserveStep(o *op) (step, string) {
	q, err := query.Parse(o.Query)
	if err != nil {
		return nil, err.Error()
	}
	mode, err := core.ParseViewMode(o.mode)
	if err != nil {
		return nil, err.Error()
	}
	caller := o.caller
	if caller == "" {
		caller = "ops/" + o.ID
	}
	var payload any
	if o.payload != "" {
		payload = o.payload
	}
	return func(report func(result)) {
		e.node.QueryVia(q, caller, payload, mode, func(qr core.QueryResult) {
			r := result{queryID: qr.QueryID, cands: qr.Candidates, shortfall: qr.Shortfall}
			switch {
			case qr.Err == nil:
			case errors.Is(qr.Err, core.ErrNoPlan) || errors.Is(qr.Err, core.ErrNoView):
				r.outcome, r.detail = outcomePermanent, qr.Err.Error()
			default:
				r.outcome, r.detail = outcomeTransient, qr.Err.Error()
			}
			report(r)
		})
	}, ""
}

// ackStep is one acked fan-out over o's candidates: a commit, or the
// release that serves release ops and rollbacks alike. A FromOp op first
// takes its reservation from its source reserve; while that is still in
// flight the op parks on it, freeing its worker slot — a nil step with no
// reason. A nil step with a reason means the op cannot run.
func (e *Engine) ackStep(o *op, commit bool) (step, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o.FromOp != "" && o.QueryID == "" {
		src, ok := e.ops[o.FromOp]
		switch {
		case !ok:
			return nil, "unknown source op " + o.FromOp
		case src.State == StateDone:
			o.QueryID = src.QueryID
			o.Candidates = append([]Candidate(nil), src.Candidates...)
		case src.State.Terminal():
			return nil, "source op " + o.FromOp + " ended " + string(src.State)
		default:
			o.State = StatePending
			e.runningN--
			e.waiters[o.FromOp] = append(e.waiters[o.FromOp], o)
			return nil, ""
		}
	}
	if o.QueryID == "" || len(o.Candidates) == 0 {
		return nil, "nothing to " + string(o.Kind)
	}
	queryID, cands := o.QueryID, toCoreCandidates(o.Candidates)
	return func(report func(result)) {
		acked := func(r core.AckResult) {
			switch {
			case r.Lost == 0 && (r.Unmatched == 0 || !commit):
				// An unmatched release means already free.
				report(result{})
			case commit && r.Unmatched > 0:
				report(result{outcome: outcomeRefused, detail: fmt.Sprintf("commit refused by %d owner(s): reservation expired or superseded", r.Unmatched)})
			default:
				report(result{outcome: outcomeTransient, detail: fmt.Sprintf("%d owner(s) unreachable", r.Lost)})
			}
		}
		if commit {
			e.node.CommitAcked(queryID, cands, e.cfg.StepTimeout, acked)
		} else {
			e.node.ReleaseAcked(queryID, cands, e.cfg.StepTimeout, acked)
		}
	}, ""
}

// attrsStep feeds o's updates through the node's ingest queue and reports
// when the last one is acked. With no updates — a restored record whose
// list was empty or did not decode — no ack would ever report, so that is
// the one reason it cannot run. Acks fire on the node's event context (or
// synchronously, also on it), so plain counters are safe.
func (e *Engine) attrsStep(o *op) (step, string) {
	if len(o.Updates) == 0 {
		return nil, "no updates to apply"
	}
	return func(report func(result)) {
		remaining, applied := len(o.Updates), 0
		var failures []string
		for _, u := range o.Updates {
			// The ack also carries whatever the returned error reports.
			_ = e.node.IngestEnqueue(u.Name, u.Value, "ops/"+o.ID, func(err error) {
				remaining--
				if err != nil {
					failures = append(failures, u.Name+": "+err.Error())
				} else {
					applied++
				}
				switch {
				case remaining > 0:
				case len(failures) == 0:
					report(result{})
				case applied == 0:
					report(result{outcome: outcomePermanent, detail: strings.Join(failures, "; ")})
				default:
					report(result{detail: fmt.Sprintf("%d/%d updates rejected: %s", len(failures), len(o.Updates), strings.Join(failures, "; "))})
				}
			})
		}
	}, ""
}
