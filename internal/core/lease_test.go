package core

import (
	"fmt"
	"testing"
	"time"

	"rbay/internal/store"
)

// leaseModelEvents are the inputs the exhaustive lease test interleaves.
var leaseModelEvents = []string{"reserve q1", "reserve q2", "commit q1", "release q1", "ttl passes", "crash+restore", "shutdown"}

// leaseModel is one node's lease driven through step, every effect
// appended to a real store.Log on a crash-consistent MemDir.
type leaseModel struct {
	t   *testing.T
	seq []string // the events so far
	l   *lease
	now time.Time
	dir *store.MemDir
	log *store.Log
}

const leaseModelTTL = 5 * time.Second

func (m *leaseModel) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%v: %s", m.seq, fmt.Sprintf(format, args...))
}

func reportOf(l *lease, now time.Time) string {
	if h := holder(l, now); h != nil {
		return fmt.Sprintf("%s committed=%v", h.queryID, h.committed)
	}
	return "free"
}

// record appends eff to the live log and syncs it, as the gate would
// before anything the effect enables leaves the node.
func (m *leaseModel) record(eff effect) {
	if eff.record(m.log) {
		if err := m.log.Sync(); err != nil {
			m.fail("sync: %v", err)
		}
	}
}

func (m *leaseModel) run(e int) {
	m.t.Helper()
	m.seq = append(m.seq, leaseModelEvents[e])
	prev := m.l
	var before lease
	if prev != nil {
		before = *prev
	}
	switch leaseModelEvents[e] {
	case "ttl passes":
		m.now = m.now.Add(leaseModelTTL + time.Millisecond)
		if prev != nil && prev.committed && holder(prev, m.now) == nil {
			m.fail("committed lease %s expired", prev.queryID)
		}
	case "crash+restore":
		live := reportOf(m.l, m.now)
		m.dir = m.dir.CrashCopy()
		log, state, err := store.Open(m.dir, store.Options{})
		if err != nil {
			m.fail("reopen: %v", err)
		}
		m.log = log
		var stored *lease
		if r := state.Reservation; r != nil {
			stored = &lease{queryID: r.QueryID, expires: r.Expires, committed: r.Committed}
		}
		l, eff := step(nil, leaseEvent{kind: leaseRestore, stored: stored}, m.now, leaseModelTTL)
		m.record(eff)
		m.l = l
		if got := reportOf(m.l, m.now); got != live {
			m.fail("Reserved() after restore = %s, live = %s", got, live)
		}
		if r := m.log.State().Reservation; r != nil && r.Expires.Before(m.now) && !r.Committed {
			m.fail("restore kept the lapsed lease %s on disk", r.QueryID)
		}
	default:
		var ev leaseEvent
		switch leaseModelEvents[e] {
		case "reserve q1":
			ev = leaseEvent{kind: leaseReserve, queryID: "q1"}
		case "reserve q2":
			ev = leaseEvent{kind: leaseReserve, queryID: "q2"}
		case "commit q1":
			ev = leaseEvent{kind: leaseCommit, queryID: "q1"}
		case "release q1":
			ev = leaseEvent{kind: leaseRelease, queryID: "q1"}
		case "shutdown":
			ev = leaseEvent{kind: leaseShutdown}
		}
		l, eff := step(prev, ev, m.now, leaseModelTTL)
		if prev != nil && *prev != before {
			m.fail("step mutated its input lease")
		}
		if h := holder(prev, m.now); eff.verdict == granted && h != nil && h.queryID != ev.queryID {
			m.fail("%s granted while %s holds the node: two holders", ev.queryID, h.queryID)
		}
		if n := len(m.seq); ev.kind == leaseRelease && n > 1 && m.seq[n-2] == "release q1" {
			if eff.rec != leaseNone || l != prev {
				m.fail("second release changed the lease or wrote a record")
			}
		}
		if l != nil && l.committed && holder(l, m.now.Add(1000*leaseModelTTL)) == nil {
			m.fail("committed lease %s can expire", l.queryID)
		}
		m.record(eff)
		m.l = l
	}
	// store.State.apply replays what step decided: the live log's fold
	// must hold the same lease.
	got := m.log.State().Reservation
	switch {
	case got == nil && m.l == nil:
	case got == nil || m.l == nil:
		m.fail("store folds %+v, step holds %+v", got, m.l)
	case got.QueryID != m.l.queryID || got.Committed != m.l.committed || !got.Expires.Equal(m.l.expires):
		m.fail("store folds %+v, step holds %+v", *got, *m.l)
	}
}

// TestLeaseStepExhaustive drives every sequence of up to six lease events
// through step. Each sequence of length six is run once and its
// invariants are checked after every event, which covers every shorter
// sequence as a prefix.
func TestLeaseStepExhaustive(t *testing.T) {
	const depth = 6
	t0 := time.Unix(1_000_000, 0)
	seq := make([]int, depth)
	total := 1
	for i := 0; i < depth; i++ {
		total *= len(leaseModelEvents)
	}
	for code := 0; code < total; code++ {
		c := code
		for i := range seq {
			seq[i] = c % len(leaseModelEvents)
			c /= len(leaseModelEvents)
		}
		dir := store.NewMemDir()
		log, _, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := &leaseModel{t: t, now: t0, dir: dir, log: log}
		for _, e := range seq {
			m.run(e)
		}
	}
}
