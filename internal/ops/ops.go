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
//
// A running op is driven by attempt (attempt.go), which runs the step of
// the op's phase and asks decide (decide.go) — a pure table — what the
// result means: finish, retry, or roll back. Every op ends through
// finish: decide, persist, then publish.
package ops

import (
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
}

func (c Config) withDefaults() Config {
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
	return c
}

// op is the engine's operation state: the snapshot callers see (Dedup
// never set) plus what they do not. Fields are guarded by Engine.mu; the
// driving logic runs on the node's event context and takes the lock for
// every mutation, never holding it across core or store calls. The
// identity and request fields never change once the op is registered, so
// steps read those without the lock.
type op struct {
	Op

	// A reserve's query parameters beyond the text.
	caller  string
	payload string
	mode    string

	// finishing is set once the terminal transition is decided; State
	// stays running until that transition's record is durable.
	finishing bool
	// rollbackReason, once set, switches the op into its rollback phase:
	// release every candidate, then finish rolled-back.
	rollbackReason string
	// rolledBack records that a failed reserve attempt released partial
	// reservations, so running out of attempts ends rolled-back, not failed.
	rolledBack bool

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
		cfg:      cfg.withDefaults(),
		m:        n.Metrics(),
		idPrefix: "op-" + strings.ReplaceAll(n.Addr().String(), "/", "-"),
		ops:      make(map[string]*op),
		byIdem:   make(map[string]string),
		waiters:  make(map[string][]*op),
	}
}

func idemKeyOf(tenant, key string) string { return tenant + "\x00" + key }

// register makes o known by ID and by idempotency key. e.mu must be held.
func (e *Engine) register(o *op) {
	e.ops[o.ID] = o
	if o.IdemKey != "" {
		e.byIdem[idemKeyOf(o.Tenant, o.IdemKey)] = o.ID
	}
}

// forget undoes register, leaving the key alone if a later op took it over.
// e.mu must be held.
func (e *Engine) forget(o *op) {
	delete(e.ops, o.ID)
	if key := idemKeyOf(o.Tenant, o.IdemKey); e.byIdem[key] == o.ID {
		delete(e.byIdem, key)
	}
}

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
	now := e.node.Now()
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
		Op: Op{
			ID:         e.idPrefix + "-" + strconv.FormatUint(e.seq, 10),
			Kind:       req.Kind,
			State:      StatePending,
			IdemKey:    req.IdemKey,
			Tenant:     req.Tenant,
			Query:      req.Query,
			QueryID:    req.QueryID,
			Candidates: append([]Candidate(nil), req.Candidates...),
			FromOp:     req.FromOp,
			Updates:    append([]Update(nil), req.Updates...),
			Created:    now,
			Updated:    now,
		},
		caller:  req.Caller,
		payload: req.Payload,
		mode:    req.Mode,
	}
	e.register(o)
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
			o.State = StateFailed
			e.forget(o)
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
		tail := rec.ID[strings.LastIndexByte(rec.ID, '-')+1:]
		if n, err := strconv.ParseUint(tail, 10, 64); err == nil && n > e.seq {
			e.seq = n
		}
		e.register(o)
		if o.State.Terminal() {
			e.terminalQ = append(e.terminalQ, o.ID)
			continue
		}
		// A crash mid-flight leaves pending or running records; both
		// restart from scratch. Re-running is safe: reserve re-queries
		// (stale holds expire by TTL), commit/release are idempotent at
		// the owners, attrs re-applies value-equal writes as no-ops.
		o.State = StatePending
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
		left := e.QueueDepth()
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
		if o.State != StatePending {
			e.mu.Unlock()
			continue
		}
		o.State = StateRunning
		o.Updated = e.node.Now()
		e.runningN++
		e.mu.Unlock()
		e.attempt(o)
	}
}

// finish decides o's terminal transition, persists it off the event
// context, and publishes it — state visible to Get, dependents queued,
// worker slot freed — only once the record is durable, so no caller ever
// reads a terminal state a crash could take back. Node event context
// only.
func (e *Engine) finish(o *op, state State, errMsg string) {
	e.mu.Lock()
	if o.State.Terminal() || o.finishing {
		e.mu.Unlock()
		return
	}
	o.finishing = true
	if o.deadline != nil {
		o.deadline()
		o.deadline = nil
	}
	now := e.node.Now()
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
	if o.State == StateRunning {
		e.runningN--
	}
	o.State = state
	o.Error = errMsg
	o.Updated = now
	e.active--
	e.terminalQ = append(e.terminalQ, o.ID)
	var evict []string
	for len(e.terminalQ) > e.cfg.RetainTerminal {
		eid := e.terminalQ[0]
		e.terminalQ = e.terminalQ[1:]
		if old := e.ops[eid]; old != nil {
			e.forget(old)
			evict = append(evict, eid)
		}
	}
	waiters := e.waiters[o.ID]
	delete(e.waiters, o.ID)
	e.queue = append(e.queue, waiters...)
	latency := o.Updated.Sub(o.Created)
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
