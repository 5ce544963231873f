// Package httpgw exposes an RBAY node's query interface and admin surface
// over HTTP/JSON — the information plane's "web front end" (the role the
// central manager's frontend plays in Ganglia-style systems, here served
// by any node, decentralized). cmd/rbayd mounts it with -http.
//
// The gateway is for real (tcpnet) deployments: it injects work onto the
// node's single dispatch context via the transport's timer queue, so node
// state is never touched from HTTP goroutines.
//
// Mutating calls (reserve, commit, release, bulk attrs) are asynchronous:
// each accepted submission becomes a durable pending operation
// (internal/ops) and answers 202 with the op snapshot; clients poll
// GET /ops/{id} to its terminal state. See docs/GATEWAY.md.
package httpgw

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"rbay/internal/core"
	"rbay/internal/fedcfg"
	"rbay/internal/ops"
	"rbay/internal/query"
	"rbay/internal/trace"
)

// Server is an http.Handler over one RBAY node.
type Server struct {
	node *core.Node
	eng  *ops.Engine
	mux  *http.ServeMux
	// timeout bounds every synchronous gateway operation.
	timeout time.Duration
	maxBody int64
	lim     *limiter
}

// Options tunes a gateway.
type Options struct {
	// Timeout bounds synchronous handlers (query, views, attrs reads).
	// Default 30s.
	Timeout time.Duration
	// MaxBody caps request bodies (http.MaxBytesReader). Default 1 MiB.
	MaxBody int64
	// Ops supplies the pending-operations engine. Nil creates a
	// memory-only engine (OpsStore/OpsConfig then apply).
	Ops *ops.Engine
	// OpsStore/OpsConfig configure the engine NewGateway creates when
	// Ops is nil.
	OpsStore  ops.Store
	OpsConfig ops.Config
	// RateLimit is the per-tenant admission rate for mutating calls.
	// Zero Rate disables limiting.
	RateLimit RateLimit
}

// New creates a gateway for the node with default options and a
// memory-only ops engine.
func New(node *core.Node, timeout time.Duration) *Server {
	return NewGateway(node, Options{Timeout: timeout})
}

// NewGateway creates a gateway for the node.
func NewGateway(node *core.Node, o Options) *Server {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	eng := o.Ops
	if eng == nil {
		eng = ops.NewEngine(node, o.OpsStore, o.OpsConfig)
	}
	s := &Server{
		node:    node,
		eng:     eng,
		mux:     http.NewServeMux(),
		timeout: o.Timeout,
		maxBody: o.MaxBody,
		lim:     newLimiter(o.RateLimit),
	}
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /views", s.handleViewList)
	s.mux.HandleFunc("POST /views", s.handleViewRegister)
	s.mux.HandleFunc("DELETE /views", s.handleViewDrop)
	s.mux.HandleFunc("GET /trees/{name...}", s.handleTreeStats)
	s.mux.HandleFunc("GET /attrs", s.handleAttrs)
	s.mux.HandleFunc("PUT /attrs/{name}", s.handleSetAttr)
	s.mux.HandleFunc("POST /policies/{name}", s.handleAttachPolicy)
	s.mux.HandleFunc("POST /deliver/{name...}", s.handleDeliver)
	// Async mutating surface: every POST below lands a durable op.
	s.mux.HandleFunc("POST /reserve", s.handleReserve)
	s.mux.HandleFunc("POST /commit", s.handleCommitRelease)
	s.mux.HandleFunc("POST /release", s.handleCommitRelease)
	s.mux.HandleFunc("POST /attrs", s.handleBulkAttrs)
	s.mux.HandleFunc("GET /ops", s.handleOpsList)
	s.mux.HandleFunc("GET /ops/{id...}", s.handleOpGet)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("GET /debug/queries/{id...}", s.handleDebugQueryTrace)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// handleReadyz answers whether the node should be sent work: 503 once its
// durable store has failed (it acknowledges nothing any more) or while
// the ops engine is draining for shutdown. /healthz only says the process
// is alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch err := s.node.StoreErr(); {
	case err != nil:
		writeErr(w, http.StatusServiceUnavailable, codeStoreFailed, err)
	case s.eng.Draining():
		writeErr(w, http.StatusServiceUnavailable, codeDraining, ops.ErrDraining)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// Engine returns the gateway's pending-operations engine (for Restore on
// startup and Drain on shutdown).
func (s *Server) Engine() *ops.Engine { return s.eng }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errGatewayTimeout is returned when the node does not answer in time.
var errGatewayTimeout = errors.New("httpgw: node did not answer in time")

// onNode runs fn on the node's dispatch context and waits for done to be
// signalled (fn must arrange that, possibly asynchronously). It reports
// whether that happened in time; otherwise it has written the 504.
func (s *Server) onNode(w http.ResponseWriter, fn func(done func())) bool {
	ch := make(chan struct{}, 1)
	signal := func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.node.Do(func() { fn(signal) })
	select {
	case <-ch:
		return true
	case <-time.After(s.timeout):
		writeErr(w, http.StatusGatewayTimeout, codeGatewayTimeout, errGatewayTimeout)
		return false
	}
}

// run is onNode for an fn that is done when it returns.
func (s *Server) run(w http.ResponseWriter, fn func()) bool {
	return s.onNode(w, func(done func()) { fn(); done() })
}

// mutateNode runs fn on the node and waits until what it recorded is
// durable, so the caller's 200 is post-fsync like a 202 is. It reports
// whether that happened; otherwise it has written the error response.
func (s *Server) mutateNode(w http.ResponseWriter, fn func()) bool {
	var storeErr error
	if !s.onNode(w, func(done func()) {
		fn()
		s.node.AfterDurable(func(err error) { storeErr = err; done() })
	}) {
		return false
	}
	if storeErr != nil {
		writeErr(w, http.StatusServiceUnavailable, codeStoreFailed, storeErr)
	}
	return storeErr == nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Machine-readable error codes; every error response is
// {"error": ..., "code": ..., "opId"?: ...}.
const (
	codeBadRequest     = "bad_request"
	codeNotFound       = "not_found"
	codeBodyTooLarge   = "body_too_large"
	codeGatewayTimeout = "gateway_timeout"
	codeRateLimited    = "rate_limited"
	codeQueueFull      = "queue_full"
	codeDraining       = "draining"
	codeStoreFailed    = "store_failed"
	codeSiteFailed     = "site_failed"
	codeInternal       = "internal"
)

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	OpID  string `json:"opId,omitempty"`
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error(), Code: code})
}

// candidateJSON is the wire shape of a discovered resource.
type candidateJSON struct {
	NodeID string `json:"nodeId"`
	Site   string `json:"site"`
	Host   string `json:"host"`
}

// queryResponse is the wire shape of a query result. A failed query
// answers non-2xx with Error and Code set and keeps the rest: its ID, what
// it found, and its trace.
type queryResponse struct {
	QueryID    string          `json:"queryId"`
	Candidates []candidateJSON `json:"candidates"`
	Shortfall  int             `json:"shortfall,omitempty"`
	Attempts   int             `json:"attempts"`
	Conflicts  int             `json:"conflicts,omitempty"`
	ElapsedMS  float64         `json:"elapsedMs"`
	Error      string          `json:"error,omitempty"`
	Code       string          `json:"code,omitempty"`
	// Trace carries the query's span tree when ?explain=1 is set; Explain
	// is the same tree rendered as an indented outline.
	Trace   *trace.Span `json:"trace,omitempty"`
	Explain string      `json:"explain,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("q")
	if sql == "" {
		writeErr(w, http.StatusBadRequest, codeBadRequest, errors.New("missing q parameter"))
		return
	}
	q, err := query.Parse(sql)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	caller := r.URL.Query().Get("caller")
	if caller == "" {
		caller = "httpgw@" + r.RemoteAddr
	}
	var payload any
	if pw := r.URL.Query().Get("password"); pw != "" {
		payload = pw
	}
	mode, err := core.ParseViewMode(r.URL.Query().Get("view"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	var res core.QueryResult
	if !s.onNode(w, func(done func()) {
		s.node.QueryVia(q, caller, payload, mode, func(qr core.QueryResult) {
			// A query is a read: give back every lease it took before
			// replying. POST /reserve is how a caller holds resources.
			s.node.Release(qr.QueryID, qr.Candidates)
			res = qr
			done()
		})
	}) {
		return
	}
	resp := queryResponse{
		QueryID:   res.QueryID,
		Attempts:  res.Attempts,
		Shortfall: res.Shortfall,
		Conflicts: res.Conflicts,
		ElapsedMS: float64(res.Elapsed) / 1e6,
	}
	status := http.StatusOK
	if res.Err != nil {
		resp.Error = res.Err.Error()
		status, resp.Code = queryFailure(res.Err)
	}
	if explain := r.URL.Query().Get("explain"); explain != "" && explain != "0" && res.Trace != nil {
		resp.Trace = res.Trace
		resp.Explain = res.Trace.Render()
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, candidateJSON{
			NodeID: c.NodeID, Site: c.Site, Host: c.Addr.Host,
		})
	}
	writeJSON(w, status, resp)
}

// queryFailure is the status and code a query failed with.
func queryFailure(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrNoView):
		return http.StatusNotFound, codeNotFound
	case errors.Is(err, core.ErrSiteTimeout):
		return http.StatusGatewayTimeout, codeGatewayTimeout
	case errors.Is(err, core.ErrStoreFailed):
		return http.StatusServiceUnavailable, codeStoreFailed
	}
	return http.StatusBadGateway, codeSiteFailed
}

// handleViewList serves the node's registered materialized views.
func (s *Server) handleViewList(w http.ResponseWriter, r *http.Request) {
	var views []core.ViewInfo
	if !s.run(w, func() { views = s.node.Views() }) {
		return
	}
	if views == nil {
		views = []core.ViewInfo{}
	}
	writeJSON(w, http.StatusOK, views)
}

// handleViewRegister registers a materialized view for the query in ?q.
func (s *Server) handleViewRegister(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("q")
	if sql == "" {
		writeErr(w, http.StatusBadRequest, codeBadRequest, errors.New("missing q parameter"))
		return
	}
	q, err := query.Parse(sql)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	var regErr error
	if !s.run(w, func() { regErr = s.node.RegisterView(q) }) {
		return
	}
	if regErr != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, regErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"view": q.String()})
}

// handleViewDrop drops the view for the query in ?q (parsed to its
// canonical key when possible, raw otherwise).
func (s *Server) handleViewDrop(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("q")
	if sql == "" {
		writeErr(w, http.StatusBadRequest, codeBadRequest, errors.New("missing q parameter"))
		return
	}
	key := sql
	if q, err := query.Parse(sql); err == nil {
		key = q.String()
	}
	dropped := false
	if !s.run(w, func() { dropped = s.node.DropView(key) }) {
		return
	}
	if !dropped {
		writeErr(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no view %q", key))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": key})
}

// handleMetrics serves the node's metric registry in Prometheus text
// exposition format. The registry is internally synchronized, so this
// reads it directly without hopping onto the node's event context.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.node.Metrics().Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, snap.RenderProm())
}

// handleDebugQueries lists the node's recent finished queries, newest
// last. Traces are elided from the listing; fetch one by id for the tree.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	var recs []core.QueryRecord
	if !s.run(w, func() { recs = s.node.RecentQueries() }) {
		return
	}
	list := make([]core.QueryRecord, len(recs))
	for i, rec := range recs {
		list[i] = rec
		list[i].Trace = nil
	}
	writeJSON(w, http.StatusOK, list)
}

// handleDebugQueryTrace serves one recent query's full record. With
// ?format=text it renders the trace outline instead of JSON.
func (s *Server) handleDebugQueryTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rec core.QueryRecord
	found := false
	if !s.run(w, func() {
		for _, qr := range s.node.RecentQueries() {
			if qr.QueryID == id {
				rec, found = qr, true
			}
		}
	}) {
		return
	}
	if !found {
		writeErr(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no recent query %q", id))
		return
	}
	if r.URL.Query().Get("format") == "text" && rec.Trace != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, rec.Trace.Render())
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleTreeStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var st core.TreeStats
	var statErr error
	if !s.onNode(w, func(done func()) {
		err := s.node.TreeStats(name, func(got core.TreeStats, err error) {
			st, statErr = got, err
			done()
		})
		if err != nil {
			statErr = err
			done()
		}
	}) {
		return
	}
	if statErr != nil {
		writeErr(w, http.StatusNotFound, codeNotFound, statErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tree": name, "site": s.node.Site(), "count": st.Count, "mean": st.Mean(),
	})
}

func (s *Server) handleAttrs(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{}
	if !s.run(w, func() {
		am := s.node.Attributes()
		for _, name := range am.Names() {
			v, _ := am.Get(name)
			out[name] = v
		}
	}) {
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSetAttr(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	raw := r.URL.Query().Get("value")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, codeBadRequest, errors.New("missing value parameter"))
		return
	}
	if !s.mutateNode(w, func() { s.node.SetAttribute(name, fedcfg.ParseAttrValue(raw)) }) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"set": name})
}

func (s *Server) handleAttachPolicy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var attachErr error
	if !s.mutateNode(w, func() { attachErr = s.node.AttachPolicy(name, body) }) {
		return
	}
	if attachErr != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, attachErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"policy": name})
}

func (s *Server) handleDeliver(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var payload any
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		payload = body
	}
	var delErr error
	if !s.run(w, func() { delErr = s.node.DeliverCommand(name, payload) }) {
		return
	}
	if delErr != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, delErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"delivered": name})
}

// readBody reads a request body under the gateway's size cap
// (http.MaxBytesReader). On failure the error response has already been
// written; callers just return.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		} else {
			writeErr(w, http.StatusBadRequest, codeBadRequest, err)
		}
		return "", false
	}
	return string(data), true
}
