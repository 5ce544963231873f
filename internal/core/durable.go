package core

import (
	"sort"
	"time"

	"rbay/internal/attr"
	"rbay/internal/ids"
	"rbay/internal/store"
)

// Store is the durable event sink a Node writes its recoverable state
// through: attribute posts/withdrawals, AA policy attachments, and
// reservation transitions. *store.Log implements it; the default is nil
// (no store — simnet tests stay pure in-memory and pay nothing).
//
// The Record* methods only queue: they return before the record is on
// disk, and the node holds its outputs until a Sync covers it (gate.go).
type Store interface {
	RecordSet(name string, value any)
	// RecordSetBatch records a coalesced batch of attribute updates as a
	// single WAL frame with all-or-nothing crash semantics (the ingest
	// apply path).
	RecordSetBatch(entries []store.BatchSet)
	RecordDelete(name string)
	RecordAttach(name, script string)
	RecordReserve(queryID string, expires time.Time)
	RecordCommit(queryID string)
	RecordRelease(queryID string)
	// SyncDue reports whether the store's policy wants a Sync now; the node
	// asks after every record.
	SyncDue() bool
	// Sync makes everything recorded before the call durable, or returns
	// the error that prevented it; the error is sticky. Safe from any
	// goroutine.
	Sync() error
	// Err returns the sticky error without syncing.
	Err() error
	// SyncInterval is the period the node should call Sync at; 0 means the
	// policy needs no timer.
	SyncInterval() time.Duration
	// Close syncs and detaches the store.
	Close() error
}

// scheduleStoreSync arms the periodic fsync timer for interval-policy
// stores. The timer lives on the node's event context, so it dies with
// the endpoint on crash — a dead node cannot keep making its disk more
// durable, which is exactly the semantics chaos crash tests need. The
// Sync itself runs wherever the node's other Syncs do (gate.flush).
func (n *Node) scheduleStoreSync(interval time.Duration) {
	n.p.After(interval, func() {
		n.g.flush()
		n.scheduleStoreSync(interval)
	})
}

// storeSet / storeDelete / storeAttach are the attr.Map mutation hooks.
// They record every live mutation — admin surface, monitor feeds, AA
// setattr — but stay quiet during Restore, which replays state that is
// already on disk.
func (n *Node) storeSet(name string, value any) {
	if n.st != nil && !n.restoring {
		n.st.RecordSet(name, value)
		n.g.recorded()
		n.metrics.Inc("rbay_wal_set_frames_total")
	}
}

// storeSetBatch records a whole coalesced apply batch as one WAL frame —
// the ingest pipeline's amortization of per-Set append cost. The frame
// counter advances by one however many keys the batch carries, which is
// what `make bench-churn` measures against the per-Set baseline.
func (n *Node) storeSetBatch(entries []attr.BatchEntry) {
	if len(entries) == 0 || n.st == nil || n.restoring {
		return
	}
	batch := make([]store.BatchSet, len(entries))
	for i, e := range entries {
		batch[i] = store.BatchSet{Name: e.Name, Value: e.Value}
	}
	n.st.RecordSetBatch(batch)
	n.g.recorded()
	n.metrics.Inc("rbay_wal_set_frames_total")
}

func (n *Node) storeDelete(name string) {
	if n.st != nil && !n.restoring {
		n.st.RecordDelete(name)
		n.g.recorded()
	}
}

func (n *Node) storeAttach(name, script string) {
	if n.st != nil && !n.restoring {
		n.st.RecordAttach(name, script)
		n.g.recorded()
	}
}

// Restore rebuilds the node's in-memory state from a recovered store
// snapshot: attributes are re-posted (scripts re-attached, then values
// re-set), and the lease is restored through step: re-armed with its
// original expiry, or released durably if it lapsed while the node was
// down. Call it after New and before joining the overlay; follow the
// join with Refederate.
//
// The returned error is the first script that failed to re-attach; the
// rest of the state is still restored (a broken policy must not hold the
// node's whole inventory hostage).
func (n *Node) Restore(state store.State) error {
	n.restoring = true
	defer func() { n.restoring = false }()
	var firstErr error
	for _, a := range state.SortedAttrs() {
		if a.Script != "" {
			if err := n.am.Attach(a.Name, a.Script); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		n.am.Set(a.Name, a.Value)
	}
	if r := state.Reservation; r != nil {
		n.applyLease(leaseEvent{kind: leaseRestore, stored: &lease{queryID: r.QueryID, expires: r.Expires, committed: r.Committed}})
	}
	return firstErr
}

// Refederate re-enters the federation after a restart: an immediate
// membership pass re-subscribes every tree whose predicate the restored
// attributes satisfy, and a forced scribe maintenance pass pushes the
// node's aggregates up (or re-joins trees whose parents are gone) without
// waiting an interval. The Pastry re-join itself happens when the caller
// bootstraps the node (Join / Wire); re-joining announces the node to
// survivors, which clears any failure tombstones they hold for it.
func (n *Node) Refederate() {
	n.evaluateMembership()
	n.s.Republish()
}

// Shutdown leaves the federation gracefully instead of dying mid-write:
// it releases a still-releasable (uncommitted) local reservation,
// announces departure to the overlay by leaving every subscribed tree
// (parents prune the node immediately instead of waiting out a TTL),
// flushes and closes the durable store, sends what that flush was holding
// back, and closes the transport. It must run on the node's event
// context; rbayd wraps it in DoWait from the signal handler. Close, by
// contrast, simulates a crash: it drops the transport and leaves the
// store unsynced.
func (n *Node) Shutdown() error {
	n.applyLease(leaseEvent{kind: leaseShutdown})
	topics := make([]ids.ID, 0, len(n.subscribed))
	for topic := range n.subscribed {
		topics = append(topics, topic)
	}
	sort.Slice(topics, func(i, j int) bool { return topics[i].Less(topics[j]) })
	for _, topic := range topics {
		n.s.Unsubscribe(topic)
		delete(n.subscribed, topic)
	}
	var firstErr error
	if n.st != nil {
		// The one place the event context itself waits on the device: the
		// departure messages above must not leave before the release record
		// they follow, and nothing runs after this to release them.
		firstErr = n.st.Sync()
		n.g.synced(n.g.recs, firstErr)
		if err := n.st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		n.g.bg.Wait()
	}
	if err := n.p.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
