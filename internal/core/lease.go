package core

import "time"

// A node's lease (paper §III-D, DESIGN.md "Leases"): the visiting query
// reserves a matching node, the origin commits it, and an uncommitted
// reservation lapses after ReserveTTL. Every change is one event through
// step, which decides the new lease and the record that makes it
// durable; applyLease is the only code that carries the decision out.

// lease locks a node for one query until commit, release or expiry.
type lease struct {
	queryID   string
	expires   time.Time
	committed bool
}

type leaseKind uint8

const (
	leaseNone     leaseKind = iota // as an effect's record: append none
	leaseReserve                   // a query asks for the node
	leaseRefresh                   // the origin still holds the node: extend only its own lease
	leaseCommit                    // the origin takes the node
	leaseRelease                   // the origin gives the node back
	leaseRestore                   // a restart re-arms the recovered lease, stored
	leaseShutdown                  // a graceful exit frees an uncommitted lease
)

type leaseEvent struct {
	kind    leaseKind
	queryID string
	stored  *lease
}

// verdict is what step decided.
type verdict uint8

const (
	unmatched verdict = iota // no lease for the query
	matched                  // commit or release found the query's lease
	granted                  // reserve or refresh took or extended the lease
	conflict                 // reserve found another query's live lease
)

// effect is the rest of a step's decision: the record to append (a
// reserve, commit or release for queryID, with expires on a reserve), the
// counter to bump, the verdict.
type effect struct {
	rec     leaseKind
	queryID string
	expires time.Time
	counter string
	verdict verdict
}

// holder returns l if it holds the node at now, or nil. It is the one
// statement of the lapse rule: an uncommitted lease past its expiry holds
// nothing, and a committed lease never expires.
func holder(l *lease, now time.Time) *lease {
	if l == nil || !l.committed && now.After(l.expires) {
		return nil
	}
	return l
}

// step decides one lease event without mutating l or touching the store,
// the network or the metrics. The table it implements is in DESIGN.md.
func step(l *lease, ev leaseEvent, now time.Time, ttl time.Duration) (*lease, effect) {
	mine := l != nil && l.queryID == ev.queryID
	switch ev.kind {
	case leaseRefresh:
		if !mine {
			return l, effect{}
		}
		fallthrough
	case leaseReserve:
		if !mine && holder(l, now) != nil {
			return l, effect{verdict: conflict}
		}
		next := &lease{queryID: ev.queryID, expires: now.Add(ttl), committed: mine && l.committed}
		return next, effect{rec: leaseReserve, queryID: ev.queryID, expires: next.expires, verdict: granted}
	case leaseCommit:
		switch {
		case !mine:
			return l, effect{counter: "rbay_commit_unknown_total"}
		case holder(l, now) == nil:
			// Other queries already see the node as free, so honoring the
			// commit could double-book it: refuse, and the origin rolls back.
			return nil, effect{rec: leaseRelease, queryID: l.queryID, counter: "rbay_commit_expired_total"}
		}
		next := *l
		next.committed = true
		return &next, effect{rec: leaseCommit, queryID: l.queryID, counter: "rbay_commits_total", verdict: matched}
	case leaseRelease:
		if !mine {
			return l, effect{counter: "rbay_release_unknown_total"}
		}
		return nil, effect{rec: leaseRelease, queryID: l.queryID, counter: "rbay_releases_total", verdict: matched}
	case leaseRestore:
		switch s := ev.stored; {
		case s == nil:
		case holder(s, now) == nil:
			// Lapsed while down: release it durably so a second restart agrees.
			return l, effect{rec: leaseRelease, queryID: s.queryID}
		default:
			next := *s
			return &next, effect{}
		}
	case leaseShutdown:
		if l != nil && !l.committed {
			return step(l, leaseEvent{kind: leaseRelease, queryID: l.queryID}, now, ttl)
		}
	}
	return l, effect{}
}

// record appends the effect's record to st and reports whether there was
// one.
func (e effect) record(st Store) bool {
	switch e.rec {
	case leaseReserve:
		st.RecordReserve(e.queryID, e.expires)
	case leaseCommit:
		st.RecordCommit(e.queryID)
	case leaseRelease:
		st.RecordRelease(e.queryID)
	default:
		return false
	}
	return true
}

// applyLease runs one event through step and carries out its effect: the
// only code that assigns n.reserved or appends a lease record.
func (n *Node) applyLease(ev leaseEvent) verdict {
	l, eff := step(n.reserved, ev, n.Now(), n.cfg.ReserveTTL)
	n.reserved = l
	if n.st != nil && eff.record(n.st) {
		n.g.recorded()
	}
	if eff.counter != "" {
		n.metrics.Inc(eff.counter)
	}
	return eff.verdict
}
