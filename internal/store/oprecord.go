package store

import "sort"

// StoredOp is one durable gateway operation record (internal/ops). The
// async gateway persists every accepted mutating call as a pending op
// before acknowledging it, then rewrites the record at each terminal
// transition, so a crash between accept and completion is always
// recoverable: replay hands the op back to the engine, which re-drives
// it to done or durably rolls it back.
type StoredOp struct {
	ID      string
	Kind    string
	State   string
	IdemKey string
	Tenant  string
	// Query, Payload, Caller and Mode are a reserve op's SQL text, onGet
	// payload, caller identity and view mode — everything a restart
	// needs to re-run the query.
	Query   string
	Payload string
	Caller  string
	Mode    string
	// FromOp names the reserve op a commit/release op resolves its
	// query ID and candidates from.
	FromOp string
	// QueryID and Candidates are the reservation being committed or
	// released; a done reserve op records its result here in the same
	// frame as the state transition.
	QueryID    string
	Candidates []OpCandidate
	// Updates is an attrs op's JSON-encoded update list ([{name,value}]).
	Updates   string
	Error     string
	Shortfall int
	// CreatedNanos/UpdatedNanos are Unix nanoseconds on the owning
	// node's clock (virtual under simulation).
	CreatedNanos int64
	UpdatedNanos int64
}

// OpCandidate is one reserved resource inside an op record — the store's
// codec-free mirror of core.Candidate (NodeID plus the owner's address).
type OpCandidate struct {
	NodeID string
	Site   string
	Host   string
}

// RecordOp records an operation upsert: the full op record travels in
// one frame, so a state transition plus its result (query ID,
// candidates) lands atomically or not at all. Unlike the node's Record*
// methods it is durable on return when the policy asks for that (the
// ops.Store contract), so it blocks on Sync and must not be called from a
// node's event context; a failure is reported by Err.
func (l *Log) RecordOp(op StoredOp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.appendLocked(record{Kind: kindOpUpsert, OpRec: &op})
	if l.syncDueLocked() {
		_ = l.syncLocked(seq) // sticky: the caller reads it from Err
	}
}

// RecordOpDelete records the retirement of a terminal op record
// (retention pruning). Nothing waits on a retired record, so like the
// node's Record* methods it only queues: the delete rides the next Sync,
// and one lost to a crash leaves a terminal op that is retired again.
func (l *Log) RecordOpDelete(id string) {
	l.append(record{Kind: kindOpDelete, Query: id})
}

// SortedOps returns the recovered op records in creation order (ID as
// tiebreak), for deterministic restoration.
func (s State) SortedOps() []StoredOp {
	out := make([]StoredOp, 0, len(s.Ops))
	for _, op := range s.Ops {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CreatedNanos != out[j].CreatedNanos {
			return out[i].CreatedNanos < out[j].CreatedNanos
		}
		return out[i].ID < out[j].ID
	})
	return out
}
