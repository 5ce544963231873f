package core

import (
	"time"

	"rbay/internal/pastry"
	"rbay/internal/transport"
)

// Acked commit/release: the resumable entry points the async operations
// gateway (internal/ops) drives reservations through. Unlike Commit and
// Release, which fire and forget, the acked variants tag every request
// with a ReqID and collect per-owner opAck responses under a deadline,
// so the caller learns which owners actually honored the request — the
// information a durable operation needs to decide between done, retry,
// and rollback.

// AckResult summarizes one acked commit/release fan-out.
type AckResult struct {
	// Matched owners held (or re-confirmed) the reservation for the query.
	Matched int
	// Unmatched owners no longer held it — expired or superseded. For a
	// commit that is a permanent failure; for a release it means
	// already-free.
	Unmatched int
	// Lost requests got no ack before the deadline (or the send failed) —
	// the transient-transport case worth retrying.
	Lost int
}

// AllMatched reports whether every owner honored the request.
func (r AckResult) AllMatched() bool { return r.Unmatched == 0 && r.Lost == 0 }

// CommitAcked leases the candidates to the query like Commit, but
// confirms each owner's decision. Must run on the node's event context;
// cb fires there exactly once, when every owner answered or the timeout
// expired.
func (n *Node) CommitAcked(queryID string, cands []Candidate, timeout time.Duration, cb func(AckResult)) {
	n.metrics.Add("rbay_commits_sent_total", uint64(len(cands)))
	n.ackedSend(queryID, cands, true, timeout, cb)
}

// ReleaseAcked frees the candidates' reservations or leases like
// Release, with per-owner confirmation. Same context rules as
// CommitAcked.
func (n *Node) ReleaseAcked(queryID string, cands []Candidate, timeout time.Duration, cb func(AckResult)) {
	n.metrics.Add("rbay_releases_sent_total", uint64(len(cands)))
	n.ackedSend(queryID, cands, false, timeout, cb)
}

func (n *Node) ackedSend(queryID string, cands []Candidate, commit bool, timeout time.Duration, cb func(AckResult)) {
	if timeout <= 0 {
		timeout = n.cfg.SiteQueryTimeout
	}
	// One fan-out: every owner's request waits in pastry's table under its
	// own ID, all of them under the group's single deadline.
	var (
		res      AckResult
		sent     []uint64
		deadline transport.CancelFunc
	)
	remaining := len(cands)
	settled := func(reply any, err error) {
		switch a, _ := reply.(opAck); {
		case err != nil:
			res.Lost++
		case a.Matched:
			res.Matched++
		default:
			res.Unmatched++
		}
		remaining--
		if remaining == 0 && deadline != nil {
			deadline()
			cb(res)
		}
	}
	for _, c := range cands {
		id := n.p.Await(0, opAck{}, settled)
		var msg any
		if commit {
			msg = commitReq{QueryID: queryID, ReqID: id}
		} else {
			msg = releaseReq{QueryID: queryID, ReqID: id}
		}
		if err := n.p.SendApp(c.Addr, AppName, msg); err != nil {
			n.p.Settle(id, nil, err)
			continue
		}
		sent = append(sent, id)
	}
	if remaining == 0 {
		// Nothing in flight (empty candidate list or every send failed):
		// report synchronously.
		cb(res)
		return
	}
	deadline = n.p.After(timeout, func() {
		deadline = nil // the deadline reports; the requests it settles must not
		for _, id := range sent {
			n.p.Settle(id, nil, pastry.ErrTimeout)
		}
		n.metrics.Add("rbay_op_acks_lost_total", uint64(res.Lost))
		cb(res)
	})
}

// handleOpAck and the other reply handlers take the reply twice: typed,
// and as the interface value it arrived in, which goes to Settle as is —
// boxing the typed copy again would allocate on every reply.
func (n *Node) handleOpAck(a opAck, boxed any) {
	if !n.p.Settle(a.ReqID, boxed, nil) {
		// Late ack after the group's deadline; the caller already counted
		// this owner as lost and will retry idempotently.
		n.metrics.Inc("rbay_op_acks_late_total")
	}
}
