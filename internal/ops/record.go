package ops

import (
	"encoding/json"
	"time"

	"rbay/internal/core"
	"rbay/internal/store"
	"rbay/internal/transport"
)

// running reports whether o is still being driven: started and not yet
// decided. Engine.mu must be held.
func (o *op) running() bool { return o.State == StateRunning && !o.finishing }

// phase reports which step o's next attempt runs. Engine.mu must be held.
func (o *op) phase() phase {
	if o.rollbackReason != "" {
		return phaseRollback
	}
	switch o.Kind {
	case KindReserve:
		return phaseReserve
	case KindCommit:
		return phaseCommit
	case KindRelease:
		return phaseRelease
	case KindAttrs:
		return phaseAttrs
	}
	return phaseNone
}

// snapshot copies what callers see of o. Engine.mu must be held.
func (o *op) snapshot() Op {
	snap := o.Op
	snap.Candidates = append([]Candidate(nil), o.Candidates...)
	snap.Updates = append([]Update(nil), o.Updates...)
	return snap
}

// stored renders o as its WAL record. Engine.mu must be held.
func (o *op) stored() store.StoredOp {
	rec := store.StoredOp{
		ID:           o.ID,
		Kind:         string(o.Kind),
		State:        string(o.State),
		IdemKey:      o.IdemKey,
		Tenant:       o.Tenant,
		Query:        o.Query,
		Payload:      o.payload,
		Caller:       o.caller,
		Mode:         o.mode,
		FromOp:       o.FromOp,
		QueryID:      o.QueryID,
		Error:        o.Error,
		Shortfall:    o.Shortfall,
		CreatedNanos: o.Created.UnixNano(),
		UpdatedNanos: o.Updated.UnixNano(),
	}
	// Running is a volatile state: a record read back after a crash
	// means "accepted but unfinished", which is exactly pending.
	if o.State == StateRunning {
		rec.State = string(StatePending)
	}
	for _, c := range o.Candidates {
		rec.Candidates = append(rec.Candidates, store.OpCandidate(c))
	}
	if len(o.Updates) > 0 {
		if raw, err := json.Marshal(o.Updates); err == nil {
			rec.Updates = string(raw)
		}
	}
	return rec
}

// fromStored rebuilds an op from its WAL record.
func fromStored(rec store.StoredOp) *op {
	o := &op{
		Op: Op{
			ID:        rec.ID,
			Kind:      Kind(rec.Kind),
			State:     State(rec.State),
			IdemKey:   rec.IdemKey,
			Tenant:    rec.Tenant,
			Query:     rec.Query,
			FromOp:    rec.FromOp,
			QueryID:   rec.QueryID,
			Error:     rec.Error,
			Shortfall: rec.Shortfall,
			Created:   time.Unix(0, rec.CreatedNanos),
			Updated:   time.Unix(0, rec.UpdatedNanos),
		},
		payload: rec.Payload,
		caller:  rec.Caller,
		mode:    rec.Mode,
	}
	for _, c := range rec.Candidates {
		o.Candidates = append(o.Candidates, Candidate(c))
	}
	if rec.Updates != "" {
		var ups []Update
		if err := json.Unmarshal([]byte(rec.Updates), &ups); err == nil {
			for i := range ups {
				ups[i].Value = NormalizeJSONValue(ups[i].Value)
			}
			o.Updates = ups
		}
	}
	return o
}

// NormalizeJSONValue maps decoded JSON shapes onto the attribute value
// types the store codec round-trips: homogeneous string arrays become
// []string; everything else passes through (non-scalar leftovers are
// rejected by ingest validation).
func NormalizeJSONValue(v any) any {
	arr, ok := v.([]any)
	if !ok {
		return v
	}
	out := make([]string, len(arr))
	for i, e := range arr {
		s, ok := e.(string)
		if !ok {
			return v
		}
		out[i] = s
	}
	return out
}

func toCoreCandidates(cands []Candidate) []core.Candidate {
	out := make([]core.Candidate, 0, len(cands))
	for _, c := range cands {
		out = append(out, core.Candidate{
			NodeID: c.NodeID,
			Site:   c.Site,
			Addr:   transport.Addr{Site: c.Site, Host: c.Host},
		})
	}
	return out
}

func fromCoreCandidates(cands []core.Candidate) []Candidate {
	out := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		out = append(out, Candidate{NodeID: c.NodeID, Site: c.Site, Host: c.Addr.Host})
	}
	return out
}
