package httpgw

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"

	"rbay/internal/ops"
)

// tenantOf identifies the submitting tenant for admission control and
// idempotency scoping: the X-RBAY-Tenant header when present, the
// client's host otherwise.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-RBAY-Tenant"); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// submitOp runs admission control and hands one operation to the engine,
// answering 202 with the op snapshot (200 on an idempotency-key replay)
// or the mapped structured error.
func (s *Server) submitOp(w http.ResponseWriter, r *http.Request, req ops.Request) {
	req.Tenant = tenantOf(r)
	req.IdemKey = r.Header.Get("Idempotency-Key")
	if retry, limited := s.lim.take(req.Tenant); limited {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.node.Metrics().Inc("rbay_gw_ratelimited_total")
		writeErr(w, http.StatusTooManyRequests, codeRateLimited,
			errors.New("tenant rate limit exceeded"))
		return
	}
	op, err := s.eng.Submit(req)
	switch {
	case err == nil:
		status := http.StatusAccepted
		if op.Dedup {
			// A replayed idempotency key answers with the existing record;
			// nothing new was accepted.
			status = http.StatusOK
		}
		writeJSON(w, status, op)
	case errors.Is(err, ops.ErrInvalid):
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
	case errors.Is(err, ops.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, codeQueueFull, err)
	case errors.Is(err, ops.ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, codeDraining, err)
	case errors.Is(err, ops.ErrStoreFailed):
		writeErr(w, http.StatusServiceUnavailable, codeStoreFailed, err)
	default:
		writeErr(w, http.StatusInternalServerError, codeInternal, err)
	}
}

// reserveRequest is the POST /reserve body.
type reserveRequest struct {
	Query    string `json:"query"`
	Caller   string `json:"caller,omitempty"`
	Password string `json:"password,omitempty"`
	View     string `json:"view,omitempty"`
}

func (s *Server) handleReserve(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req reserveRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	caller := req.Caller
	if caller == "" {
		caller = "httpgw@" + r.RemoteAddr
	}
	s.submitOp(w, r, ops.Request{
		Kind:    ops.KindReserve,
		Caller:  caller,
		Query:   req.Query,
		Payload: req.Password,
		Mode:    req.View,
	})
}

// commitRequest is the POST /commit and POST /release body: either the
// reservation itself (queryId+candidates) or the reserve op that made it
// (fromOp).
type commitRequest struct {
	QueryID    string          `json:"queryId,omitempty"`
	Candidates []candidateJSON `json:"candidates,omitempty"`
	FromOp     string          `json:"fromOp,omitempty"`
}

func (s *Server) handleCommitRelease(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req commitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	kind := ops.KindRelease
	if r.URL.Path == "/commit" {
		kind = ops.KindCommit
	}
	cands := make([]ops.Candidate, 0, len(req.Candidates))
	for _, c := range req.Candidates {
		cands = append(cands, ops.Candidate{NodeID: c.NodeID, Site: c.Site, Host: c.Host})
	}
	s.submitOp(w, r, ops.Request{
		Kind:       kind,
		QueryID:    req.QueryID,
		Candidates: cands,
		FromOp:     req.FromOp,
	})
}

// bulkUpdate is one attribute write in a bulk post.
type bulkUpdate struct {
	Name  string `json:"name"`
	Value any    `json:"value"`
}

// bulkRequest is the POST /attrs body.
type bulkRequest struct {
	Updates []bulkUpdate `json:"updates"`
}

// handleBulkAttrs lands a batch of attribute updates as one durable
// attrs op: the engine routes every update through the node's
// churn-ingestion queue (docs/INGEST.md), so the batch coalesces into
// one WAL frame and one view pass, and per-update rejects surface on
// the op's terminal record.
func (s *Server) handleBulkAttrs(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req bulkRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	updates := make([]ops.Update, 0, len(req.Updates))
	for _, u := range req.Updates {
		updates = append(updates, ops.Update{Name: u.Name, Value: ops.NormalizeJSONValue(u.Value)})
	}
	s.submitOp(w, r, ops.Request{Kind: ops.KindAttrs, Updates: updates})
}

func (s *Server) handleOpsList(w http.ResponseWriter, r *http.Request) {
	list := s.eng.List()
	if state := r.URL.Query().Get("state"); state != "" {
		filtered := list[:0]
		for _, op := range list {
			if string(op.State) == state {
				filtered = append(filtered, op)
			}
		}
		list = filtered
	}
	if list == nil {
		list = []ops.Op{}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleOpGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	op, ok := s.eng.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, errors.New("no op "+id))
		return
	}
	writeJSON(w, http.StatusOK, op)
}
