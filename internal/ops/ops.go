// Package ops is the gateway's durable pending-operations engine: every
// mutating call accepted by the HTTP front door (reserve, commit,
// release, bulk attrs) becomes an operation record persisted through the
// node's WAL before it is acknowledged, then a bounded worker pool
// drives it through the core with per-step deadlines and capped
// exponential retry until it reaches a terminal state — done, failed, or
// rolled-back. Client-supplied idempotency keys dedupe retried
// submissions (same key, same op record, never a second reservation),
// and Restore replays incomplete records after a crash so an accepted
// operation either completes or durably rolls back. See docs/GATEWAY.md.
package ops

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rbay/internal/core"
	"rbay/internal/metrics"
	"rbay/internal/query"
	"rbay/internal/store"
	"rbay/internal/transport"
)

// Kind is the operation type.
type Kind string

// Operation kinds.
const (
	KindReserve Kind = "reserve"
	KindCommit  Kind = "commit"
	KindRelease Kind = "release"
	KindAttrs   Kind = "attrs"
)

// State is an operation's lifecycle state.
type State string

// Operation states. pending → running → done | failed | rolled-back.
const (
	StatePending    State = "pending"
	StateRunning    State = "running"
	StateDone       State = "done"
	StateFailed     State = "failed"
	StateRolledBack State = "rolled-back"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRolledBack
}

// Candidate mirrors core.Candidate in a JSON- and WAL-friendly shape.
type Candidate struct {
	NodeID string `json:"nodeId"`
	Site   string `json:"site"`
	Host   string `json:"host"`
}

// Update is one attribute write inside an attrs op.
type Update struct {
	Name  string `json:"name"`
	Value any    `json:"value"`
}

// Request is one operation submission.
type Request struct {
	Kind    Kind
	IdemKey string
	Tenant  string
	// Caller, Query, Payload and Mode parameterize a reserve op's query.
	Caller  string
	Query   string
	Payload string
	Mode    string
	// QueryID+Candidates or FromOp (a done reserve op's ID) identify the
	// reservation a commit/release op acts on.
	QueryID    string
	Candidates []Candidate
	FromOp     string
	// Updates is an attrs op's write list.
	Updates []Update
}

// Op is a caller-visible operation snapshot.
type Op struct {
	ID         string      `json:"opId"`
	Kind       Kind        `json:"kind"`
	State      State       `json:"state"`
	Tenant     string      `json:"tenant,omitempty"`
	IdemKey    string      `json:"idemKey,omitempty"`
	Query      string      `json:"query,omitempty"`
	QueryID    string      `json:"queryId,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	Shortfall  int         `json:"shortfall,omitempty"`
	FromOp     string      `json:"fromOp,omitempty"`
	Updates    []Update    `json:"updates,omitempty"`
	Error      string      `json:"error,omitempty"`
	Attempts   int         `json:"attempts,omitempty"`
	// Dedup marks a submission answered from an existing op record via
	// its idempotency key.
	Dedup   bool      `json:"dedup,omitempty"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// Store is the slice of the WAL the engine persists through. It must be
// the node's own WAL, which is where a failed write is reported. A nil
// store keeps ops in memory only (tests, diskless nodes).
type Store interface {
	// RecordOp returns once the record is durable, so the engine calls it
	// off the node's event context (Submit's caller, core.Node.Durably).
	RecordOp(op store.StoredOp)
	// RecordOpDelete only queues: nothing waits on a retired record.
	RecordOpDelete(id string)
}

// Submission rejections the gateway maps to HTTP statuses.
var (
	// ErrInvalid wraps malformed requests (400).
	ErrInvalid = errors.New("ops: invalid request")
	// ErrQueueFull rejects submissions above QueueMax (429).
	ErrQueueFull = errors.New("ops: queue full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("ops: draining")
	// ErrStoreFailed rejects submissions whose record did not reach the
	// disk (503): the node has stopped acknowledging.
	ErrStoreFailed = errors.New("ops: durable store failed")
)

// Config tunes an Engine. Zero values take the defaults.
type Config struct {
	// Workers bounds concurrently driven operations.
	Workers int
	// QueueMax bounds non-terminal operations; submissions above it are
	// shed with ErrQueueFull.
	QueueMax int
	// StepTimeout is the per-step deadline: one reserve query attempt,
	// one commit/release ack fan-out.
	StepTimeout time.Duration
	// RetryMax caps attempts per phase (first try included).
	RetryMax int
	// RetryBase/RetryCap shape the truncated exponential backoff between
	// attempts.
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetainTerminal bounds retained terminal op records; older ones are
	// pruned from memory and WAL.
	RetainTerminal int
	// Now supplies the clock (virtual under simulation). Default
	// node.Now.
	Now func() time.Time
}

func (c Config) withDefaults(n *core.Node) Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueMax <= 0 {
		c.QueueMax = 256
	}
	if c.StepTimeout <= 0 {
		c.StepTimeout = 5 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 5 * time.Second
	}
	if c.RetainTerminal <= 0 {
		c.RetainTerminal = 512
	}
	if c.Now == nil {
		c.Now = n.Now
	}
	return c
}

// op is the engine's internal operation state. Fields are guarded by
// Engine.mu; the driving logic runs on the node's event context and
// takes the lock for every mutation, never holding it across core or
// store calls.
type op struct {
	id      string
	kind    Kind
	state   State
	idemKey string
	tenant  string

	caller  string
	query   string
	payload string
	mode    string

	queryID   string
	cands     []Candidate
	fromOp    string
	shortfall int

	updates []Update

	errMsg   string
	attempts int
	// finishing is set once the terminal transition is decided; state
	// stays running until that transition's record is durable.
	finishing bool
	// rollbackReason, once set, switches the op into its rollback phase:
	// release every candidate, then finish rolled-back.
	rollbackReason string
	rolledBack     bool

	created, updated time.Time

	deadline transport.CancelFunc
}

// Engine drives durable operations through one node. Submit, Get, List
// and Stats are safe from any goroutine; the engine marshals all core
// interaction onto the node's event context.
type Engine struct {
	node *core.Node
	st   Store
	cfg  Config
	m    *metrics.Registry

	mu        sync.Mutex
	seq       uint64
	idPrefix  string
	ops       map[string]*op
	byIdem    map[string]string
	queue     []*op
	waiters   map[string][]*op
	terminalQ []string
	runningN  int
	active    int // non-terminal ops (queued + parked + running)
	draining  bool
}

// NewEngine creates an engine for the node. st may be nil (memory-only
// ops). Metrics land in the node's registry.
func NewEngine(n *core.Node, st Store, cfg Config) *Engine {
	return &Engine{
		node:     n,
		st:       st,
		cfg:      cfg.withDefaults(n),
		m:        n.Metrics(),
		idPrefix: "op-" + strings.ReplaceAll(n.Addr().String(), "/", "-"),
		ops:      make(map[string]*op),
		byIdem:   make(map[string]string),
		waiters:  make(map[string][]*op),
	}
}

func idemKeyOf(tenant, key string) string { return tenant + "\x00" + key }

// validate rejects malformed requests before any record is created.
func validate(req Request) error {
	switch req.Kind {
	case KindReserve:
		if req.Query == "" {
			return fmt.Errorf("%w: reserve needs a query", ErrInvalid)
		}
		if _, err := query.Parse(req.Query); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		if _, err := core.ParseViewMode(req.Mode); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	case KindCommit, KindRelease:
		if req.FromOp == "" && (req.QueryID == "" || len(req.Candidates) == 0) {
			return fmt.Errorf("%w: %s needs fromOp or queryId+candidates", ErrInvalid, req.Kind)
		}
	case KindAttrs:
		if len(req.Updates) == 0 {
			return fmt.Errorf("%w: no updates", ErrInvalid)
		}
		for _, u := range req.Updates {
			if u.Name == "" {
				return fmt.Errorf("%w: update with empty attribute name", ErrInvalid)
			}
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalid, req.Kind)
	}
	return nil
}

// Submit validates, dedupes, persists and enqueues one operation,
// returning its snapshot. An idempotency-key hit returns the existing
// op with Dedup set instead of creating a second record. Safe from any
// goroutine.
func (e *Engine) Submit(req Request) (Op, error) {
	if err := validate(req); err != nil {
		return Op{}, err
	}
	if err := e.node.StoreErr(); err != nil {
		return Op{}, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	now := e.cfg.Now()
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return Op{}, ErrDraining
	}
	if req.IdemKey != "" {
		if id, ok := e.byIdem[idemKeyOf(req.Tenant, req.IdemKey)]; ok {
			if prev := e.ops[id]; prev != nil {
				snap := prev.snapshot()
				snap.Dedup = true
				e.mu.Unlock()
				e.m.Inc("rbay_ops_dedup_total")
				return snap, nil
			}
		}
	}
	if e.active >= e.cfg.QueueMax {
		e.mu.Unlock()
		e.m.Inc("rbay_ops_shed_total")
		return Op{}, ErrQueueFull
	}
	e.seq++
	o := &op{
		id:      e.idPrefix + "-" + strconv.FormatUint(e.seq, 10),
		kind:    req.Kind,
		state:   StatePending,
		idemKey: req.IdemKey,
		tenant:  req.Tenant,
		caller:  req.Caller,
		query:   req.Query,
		payload: req.Payload,
		mode:    req.Mode,
		queryID: req.QueryID,
		cands:   append([]Candidate(nil), req.Candidates...),
		fromOp:  req.FromOp,
		updates: append([]Update(nil), req.Updates...),
		created: now,
		updated: now,
	}
	e.ops[o.id] = o
	if o.idemKey != "" {
		e.byIdem[idemKeyOf(o.tenant, o.idemKey)] = o.id
	}
	e.queue = append(e.queue, o)
	e.active++
	rec := o.stored()
	snap := o.snapshot()
	depth := e.active
	e.mu.Unlock()

	if e.st != nil {
		e.st.RecordOp(rec)
		if err := e.node.StoreErr(); err != nil {
			// Not on disk, so not accepted: forget the op (pump skips a
			// queued entry that is no longer pending).
			e.mu.Lock()
			o.state = StateFailed
			delete(e.ops, o.id)
			if o.idemKey != "" {
				delete(e.byIdem, idemKeyOf(o.tenant, o.idemKey))
			}
			e.active--
			e.mu.Unlock()
			return Op{}, fmt.Errorf("%w: %v", ErrStoreFailed, err)
		}
	}
	e.m.Inc("rbay_ops_submitted_total")
	e.m.ObserveInt("rbay_ops_queue_depth", depth)
	e.node.Do(e.pump)
	return snap, nil
}

// Get returns one op's snapshot.
func (e *Engine) Get(id string) (Op, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o, ok := e.ops[id]
	if !ok {
		return Op{}, false
	}
	return o.snapshot(), true
}

// List returns every known op, oldest first.
func (e *Engine) List() []Op {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Op, 0, len(e.ops))
	for _, o := range e.ops {
		out = append(out, o.snapshot())
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// QueueDepth returns the count of non-terminal ops.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active
}

// Draining reports whether Drain has begun and submissions are refused.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Restore loads recovered op records — typically store.State.Ops after
// a crash — and re-enqueues every non-terminal one, so an operation
// accepted before the crash still reaches a terminal state. Call after
// the node has rejoined its federation. Returns the number of ops
// re-queued.
func (e *Engine) Restore(recs map[string]store.StoredOp) int {
	list := store.State{Ops: recs}.SortedOps()
	requeued := 0
	e.mu.Lock()
	for _, rec := range list {
		if _, dup := e.ops[rec.ID]; dup {
			continue
		}
		o := fromStored(rec)
		// Keep fresh IDs above every restored one so the prefix+seq
		// scheme never re-mints a recovered ID.
		if i := strings.LastIndexByte(rec.ID, '-'); i >= 0 {
			if n, err := strconv.ParseUint(rec.ID[i+1:], 10, 64); err == nil && n > e.seq {
				e.seq = n
			}
		}
		e.ops[o.id] = o
		if o.idemKey != "" {
			e.byIdem[idemKeyOf(o.tenant, o.idemKey)] = o.id
		}
		if o.state.Terminal() {
			e.terminalQ = append(e.terminalQ, o.id)
			continue
		}
		// A crash mid-flight leaves pending or running records; both
		// restart from scratch. Re-running is safe: reserve re-queries
		// (stale holds expire by TTL), commit/release are idempotent at
		// the owners, attrs re-applies value-equal writes as no-ops.
		o.state = StatePending
		o.attempts = 0
		e.queue = append(e.queue, o)
		e.active++
		requeued++
	}
	e.mu.Unlock()
	e.m.Add("rbay_ops_restored_total", uint64(requeued))
	if requeued > 0 {
		e.node.Do(e.pump)
	}
	return requeued
}

// Drain stops accepting new submissions and waits (wall clock) until
// every accepted op reaches a terminal state or the timeout expires,
// returning the ops still in flight. For the real-time daemon's SIGTERM
// path; not usable under simulated time.
func (e *Engine) Drain(timeout time.Duration) int {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		e.mu.Lock()
		left := e.active
		e.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// pump starts queued ops while worker slots are free. Node event
// context only.
func (e *Engine) pump() {
	for {
		e.mu.Lock()
		if e.runningN >= e.cfg.Workers || len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		o := e.queue[0]
		e.queue = e.queue[1:]
		if o.state != StatePending {
			e.mu.Unlock()
			continue
		}
		o.state = StateRunning
		o.updated = e.cfg.Now()
		e.runningN++
		e.mu.Unlock()
		e.startOp(o)
	}
}

// startOp dispatches one attempt of o. Node event context only.
func (e *Engine) startOp(o *op) {
	if o.rollbackReason != "" {
		e.runRollback(o)
		return
	}
	switch o.kind {
	case KindReserve:
		e.runReserve(o)
	case KindCommit, KindRelease:
		e.runCommitRelease(o)
	case KindAttrs:
		e.runAttrs(o)
	default:
		e.finish(o, StateFailed, "unknown kind "+string(o.kind))
	}
}

// permanentQueryErr classifies reserve failures that retrying cannot
// fix.
func permanentQueryErr(err error) bool {
	return errors.Is(err, core.ErrNoPlan) || errors.Is(err, core.ErrNoView)
}

func (e *Engine) runReserve(o *op) {
	q, err := query.Parse(o.query)
	if err != nil {
		e.finish(o, StateFailed, err.Error())
		return
	}
	mode, err := core.ParseViewMode(o.mode)
	if err != nil {
		e.finish(o, StateFailed, err.Error())
		return
	}
	e.mu.Lock()
	o.attempts++
	gen := o.attempts
	caller := o.caller
	if caller == "" {
		caller = "ops/" + o.id
	}
	var payload any
	if o.payload != "" {
		payload = o.payload
	}
	o.deadline = e.node.Pastry().After(e.cfg.StepTimeout, func() {
		e.mu.Lock()
		stale := o.attempts != gen || !o.running()
		e.mu.Unlock()
		if stale {
			return
		}
		e.retryOrFinish(o, "reserve deadline exceeded")
	})
	e.mu.Unlock()

	e.node.QueryVia(q, caller, payload, mode, func(qr core.QueryResult) {
		e.mu.Lock()
		stale := o.attempts != gen || !o.running()
		if !stale && o.deadline != nil {
			o.deadline()
			o.deadline = nil
		}
		e.mu.Unlock()
		if stale {
			// The deadline (or a crash) already moved the op on; free
			// whatever this late attempt reserved.
			if qr.QueryID != "" && len(qr.Candidates) > 0 {
				e.node.Release(qr.QueryID, qr.Candidates)
			}
			return
		}
		if qr.Err != nil {
			// A failed round may still hold partial reservations; release
			// them before retrying or failing so nothing stays locked
			// beyond TTL on our account.
			if qr.QueryID != "" && len(qr.Candidates) > 0 {
				e.node.Release(qr.QueryID, qr.Candidates)
				e.mu.Lock()
				o.rolledBack = true
				e.mu.Unlock()
			}
			if permanentQueryErr(qr.Err) {
				e.finish(o, StateFailed, qr.Err.Error())
				return
			}
			e.retryOrFinish(o, qr.Err.Error())
			return
		}
		e.mu.Lock()
		o.queryID = qr.QueryID
		o.cands = fromCoreCandidates(qr.Candidates)
		o.shortfall = qr.Shortfall
		e.mu.Unlock()
		e.finish(o, StateDone, "")
	})
}

func (e *Engine) runCommitRelease(o *op) {
	e.mu.Lock()
	if o.fromOp != "" && o.queryID == "" {
		src, ok := e.ops[o.fromOp]
		switch {
		case !ok:
			e.mu.Unlock()
			e.finish(o, StateFailed, "unknown source op "+o.fromOp)
			return
		case src.state == StateDone:
			o.queryID = src.queryID
			o.cands = append([]Candidate(nil), src.cands...)
		case src.state.Terminal():
			state := string(src.state)
			e.mu.Unlock()
			e.finish(o, StateFailed, "source op "+o.fromOp+" ended "+state)
			return
		default:
			// Source still in flight: park until it finishes, freeing the
			// worker slot.
			o.state = StatePending
			e.runningN--
			e.waiters[o.fromOp] = append(e.waiters[o.fromOp], o)
			e.mu.Unlock()
			return
		}
	}
	if o.queryID == "" || len(o.cands) == 0 {
		e.mu.Unlock()
		e.finish(o, StateFailed, "nothing to "+string(o.kind))
		return
	}
	o.attempts++
	gen := o.attempts
	queryID := o.queryID
	cands := toCoreCandidates(o.cands)
	commit := o.kind == KindCommit
	e.mu.Unlock()

	cb := func(r core.AckResult) {
		e.mu.Lock()
		stale := o.attempts != gen || !o.running() || o.rollbackReason != ""
		attempts := o.attempts
		e.mu.Unlock()
		if stale {
			return
		}
		switch {
		case r.AllMatched():
			e.finish(o, StateDone, "")
		case commit && r.Unmatched > 0:
			// An owner refused: its reservation expired or was superseded.
			// All-or-nothing semantics — undo the owners that did commit.
			e.startRollback(o, fmt.Sprintf("commit refused by %d owner(s): reservation expired or superseded", r.Unmatched))
		case !commit && r.Lost == 0:
			// Unmatched releases mean already-free: success.
			e.finish(o, StateDone, "")
		case attempts >= e.cfg.RetryMax && commit:
			e.startRollback(o, fmt.Sprintf("commit incomplete after %d attempts: %d owner(s) unreachable", attempts, r.Lost))
		case attempts >= e.cfg.RetryMax:
			e.finish(o, StateFailed, fmt.Sprintf("release incomplete after %d attempts: %d owner(s) unreachable", attempts, r.Lost))
		default:
			e.retryAfterBackoff(o, attempts)
		}
	}
	if commit {
		e.node.CommitAcked(queryID, cands, e.cfg.StepTimeout, cb)
	} else {
		e.node.ReleaseAcked(queryID, cands, e.cfg.StepTimeout, cb)
	}
}

// startRollback flips the op into its rollback phase and runs the first
// release fan-out. Node event context only.
func (e *Engine) startRollback(o *op, reason string) {
	e.mu.Lock()
	o.rollbackReason = reason
	o.rolledBack = true
	o.attempts = 0
	e.mu.Unlock()
	e.runRollback(o)
}

func (e *Engine) runRollback(o *op) {
	e.mu.Lock()
	o.attempts++
	gen := o.attempts
	queryID := o.queryID
	cands := toCoreCandidates(o.cands)
	reason := o.rollbackReason
	e.mu.Unlock()
	e.node.ReleaseAcked(queryID, cands, e.cfg.StepTimeout, func(r core.AckResult) {
		e.mu.Lock()
		stale := o.attempts != gen || !o.running()
		attempts := o.attempts
		e.mu.Unlock()
		if stale {
			return
		}
		if r.Lost == 0 {
			e.finish(o, StateRolledBack, reason)
			return
		}
		if attempts >= e.cfg.RetryMax {
			e.finish(o, StateRolledBack, fmt.Sprintf("%s; rollback incomplete: %d owner(s) unreachable (TTL frees uncommitted holds)", reason, r.Lost))
			return
		}
		e.retryAfterBackoff(o, attempts)
	})
}

func (e *Engine) runAttrs(o *op) {
	e.mu.Lock()
	updates := o.updates
	id := o.id
	e.mu.Unlock()
	remaining := len(updates)
	applied := 0
	var failures []string
	// Acks fire on the node's event context (or synchronously here,
	// also on it), so plain counters are safe.
	for _, u := range updates {
		name := u.Name
		_ = e.node.IngestEnqueue(name, u.Value, "ops/"+id, func(err error) {
			remaining--
			if err != nil {
				failures = append(failures, name+": "+err.Error())
			} else {
				applied++
			}
			if remaining > 0 {
				return
			}
			e.mu.Lock()
			running := o.running()
			e.mu.Unlock()
			if !running {
				return
			}
			switch {
			case len(failures) == 0:
				e.finish(o, StateDone, "")
			case applied == 0:
				e.finish(o, StateFailed, strings.Join(failures, "; "))
			default:
				e.finish(o, StateDone, fmt.Sprintf("%d/%d updates rejected: %s", len(failures), len(updates), strings.Join(failures, "; ")))
			}
		})
	}
}

// retryOrFinish retries o after backoff, or finishes it when attempts
// are exhausted (rolled-back when a rollback release was issued along
// the way, failed otherwise). Node event context only.
func (e *Engine) retryOrFinish(o *op, reason string) {
	e.mu.Lock()
	attempts := o.attempts
	rolledBack := o.rolledBack
	o.errMsg = reason
	e.mu.Unlock()
	if attempts >= e.cfg.RetryMax {
		state := StateFailed
		if rolledBack {
			state = StateRolledBack
		}
		e.finish(o, state, reason)
		return
	}
	e.retryAfterBackoff(o, attempts)
}

// retryAfterBackoff schedules o's next attempt under truncated
// exponential backoff. Node event context only.
func (e *Engine) retryAfterBackoff(o *op, attempts int) {
	e.m.Inc("rbay_ops_retries_total")
	backoff := e.cfg.RetryBase << uint(attempts-1)
	if backoff > e.cfg.RetryCap || backoff <= 0 {
		backoff = e.cfg.RetryCap
	}
	e.node.Pastry().After(backoff, func() {
		e.mu.Lock()
		run := o.running()
		e.mu.Unlock()
		if run {
			e.startOp(o)
		}
	})
}

// finish decides o's terminal transition, persists it off the event
// context, and publishes it — state visible to Get, dependents queued,
// worker slot freed — only once the record is durable, so no caller ever
// reads a terminal state a crash could take back. Node event context
// only.
func (e *Engine) finish(o *op, state State, errMsg string) {
	e.mu.Lock()
	if o.state.Terminal() || o.finishing {
		e.mu.Unlock()
		return
	}
	o.finishing = true
	if o.deadline != nil {
		o.deadline()
		o.deadline = nil
	}
	now := e.cfg.Now()
	rec := o.stored()
	rec.State, rec.Error, rec.UpdatedNanos = string(state), errMsg, now.UnixNano()
	e.mu.Unlock()

	if e.st == nil {
		e.publish(o, state, errMsg, now)
		return
	}
	e.node.Durably(func() { e.st.RecordOp(rec) }, func(err error) {
		// On an error the node has stopped: the op stays running for a
		// restart to re-drive from its last durable record.
		if err == nil {
			e.publish(o, state, errMsg, now)
		}
	})
}

// publish makes o's durable terminal state visible, prunes old terminal
// records, flushes dependents and refills worker slots. Node event
// context only.
func (e *Engine) publish(o *op, state State, errMsg string, now time.Time) {
	e.mu.Lock()
	if o.state == StateRunning {
		e.runningN--
	}
	o.state = state
	o.errMsg = errMsg
	o.updated = now
	e.active--
	e.terminalQ = append(e.terminalQ, o.id)
	var evict []string
	for len(e.terminalQ) > e.cfg.RetainTerminal {
		eid := e.terminalQ[0]
		e.terminalQ = e.terminalQ[1:]
		if old := e.ops[eid]; old != nil {
			delete(e.ops, eid)
			if old.idemKey != "" {
				key := idemKeyOf(old.tenant, old.idemKey)
				if e.byIdem[key] == eid {
					delete(e.byIdem, key)
				}
			}
			evict = append(evict, eid)
		}
	}
	waiters := e.waiters[o.id]
	delete(e.waiters, o.id)
	e.queue = append(e.queue, waiters...)
	latency := o.updated.Sub(o.created)
	depth := e.active
	e.mu.Unlock()

	if e.st != nil {
		for _, id := range evict {
			e.st.RecordOpDelete(id)
		}
	}
	switch state {
	case StateDone:
		e.m.Inc("rbay_ops_done_total")
	case StateFailed:
		e.m.Inc("rbay_ops_failed_total")
	case StateRolledBack:
		e.m.Inc("rbay_ops_rolledback_total")
	}
	e.m.Observe("rbay_op_latency", latency)
	e.m.ObserveInt("rbay_ops_queue_depth", depth)
	e.node.Do(e.pump)
}

// running reports whether o is still being driven: started and not yet
// decided. Engine.mu must be held.
func (o *op) running() bool { return o.state == StateRunning && !o.finishing }

// snapshot renders o for callers. Engine.mu must be held.
func (o *op) snapshot() Op {
	return Op{
		ID:         o.id,
		Kind:       o.kind,
		State:      o.state,
		Tenant:     o.tenant,
		IdemKey:    o.idemKey,
		Query:      o.query,
		QueryID:    o.queryID,
		Candidates: append([]Candidate(nil), o.cands...),
		Shortfall:  o.shortfall,
		FromOp:     o.fromOp,
		Updates:    append([]Update(nil), o.updates...),
		Error:      o.errMsg,
		Attempts:   o.attempts,
		Created:    o.created,
		Updated:    o.updated,
	}
}

// stored renders o as its WAL record. Engine.mu must be held.
func (o *op) stored() store.StoredOp {
	rec := store.StoredOp{
		ID:           o.id,
		Kind:         string(o.kind),
		State:        string(o.state),
		IdemKey:      o.idemKey,
		Tenant:       o.tenant,
		Query:        o.query,
		Payload:      o.payload,
		Caller:       o.caller,
		Mode:         o.mode,
		FromOp:       o.fromOp,
		QueryID:      o.queryID,
		Error:        o.errMsg,
		Shortfall:    o.shortfall,
		CreatedNanos: o.created.UnixNano(),
		UpdatedNanos: o.updated.UnixNano(),
	}
	// Running is a volatile state: a record read back after a crash
	// means "accepted but unfinished", which is exactly pending.
	if rec.State == string(StateRunning) {
		rec.State = string(StatePending)
	}
	for _, c := range o.cands {
		rec.Candidates = append(rec.Candidates, store.OpCandidate{NodeID: c.NodeID, Site: c.Site, Host: c.Host})
	}
	if len(o.updates) > 0 {
		if raw, err := json.Marshal(o.updates); err == nil {
			rec.Updates = string(raw)
		}
	}
	return rec
}

// fromStored rebuilds an op from its WAL record.
func fromStored(rec store.StoredOp) *op {
	o := &op{
		id:        rec.ID,
		kind:      Kind(rec.Kind),
		state:     State(rec.State),
		idemKey:   rec.IdemKey,
		tenant:    rec.Tenant,
		query:     rec.Query,
		payload:   rec.Payload,
		caller:    rec.Caller,
		mode:      rec.Mode,
		fromOp:    rec.FromOp,
		queryID:   rec.QueryID,
		errMsg:    rec.Error,
		shortfall: rec.Shortfall,
		created:   time.Unix(0, rec.CreatedNanos),
		updated:   time.Unix(0, rec.UpdatedNanos),
	}
	for _, c := range rec.Candidates {
		o.cands = append(o.cands, Candidate{NodeID: c.NodeID, Site: c.Site, Host: c.Host})
	}
	if rec.Updates != "" {
		var ups []Update
		if err := json.Unmarshal([]byte(rec.Updates), &ups); err == nil {
			for i := range ups {
				ups[i].Value = NormalizeJSONValue(ups[i].Value)
			}
			o.updates = ups
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
