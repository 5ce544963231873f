package main

// Decorators over the interfaces the layers already expose. Each one
// counts always (atomic adds, so the measured run and the traced run
// execute the same code) and records a span only while tracing is on.

import (
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbay/internal/core"
	"rbay/internal/metrics"
	"rbay/internal/ops"
	"rbay/internal/store"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// Indices into counters. Time sums are nanoseconds.
const (
	cHTTPRequests = iota
	cOpsRecords
	cOpsRecordNs
	cCoreRecords
	cCoreRecordNs
	cDevSyncs
	cDevWrites
	cDevBytes
	cCompactions
	cMsgs
	cCrossSiteMsgs
	cMsgBytes  // traced phase only
	cUnmatched // deliveries with no recorded send
	nCounters
)

// counters is every count the decorators keep; counts is a copy of it at
// one instant.
type (
	counters [nCounters]atomic.Int64
	counts   [nCounters]int64
)

func (c *counters) snap() (out counts) {
	for i := range c {
		out[i] = c[i].Load()
	}
	return out
}

func (a counts) sub(b counts) (out counts) {
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// maxCaptured bounds the messages kept for the wire replay probe.
const maxCaptured = 4096

// instr is the instrumentation state one federation's decorators share.
type instr struct {
	tr *tracer
	c  counters

	mu          sync.Mutex
	syncNs      []int64 // every File.Sync / WriteFile duration incl. the model
	compactMax  int64   // longest snapshot WriteFile→Rename, ns
	lagNs       []int64 // gateway After(0) scheduled→started, traced phase
	deliverNs   []int64 // send call → peer handler entry, traced phase
	captured    []any   // messages seen by Send in the traced phase
	fifos       map[[2]transport.Addr]*fifo
	layerByType sync.Map // reflect.Type → string
}

func newInstr() *instr {
	return &instr{tr: newTracer(), fifos: make(map[[2]transport.Addr]*fifo)}
}

// fifo holds the send times of one (from,to) pair's in-flight messages.
// tcpnet keeps one ordered connection per pair, so the oldest send time
// belongs to the next delivery. A nil fifo (an address outside the
// federation) matches nothing.
type fifo struct {
	mu sync.Mutex
	q  []int64
}

func (f *fifo) push(t int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.q = append(f.q, t)
	f.mu.Unlock()
}

func (f *fifo) pop() (int64, bool) {
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q) == 0 {
		return 0, false
	}
	t := f.q[0]
	f.q = f.q[1:]
	return t, true
}

// dropLast undoes the push of a send that failed locally.
func (f *fifo) dropLast() {
	if f == nil {
		return
	}
	f.mu.Lock()
	if n := len(f.q); n > 0 {
		f.q = f.q[:n-1]
	}
	f.mu.Unlock()
}

// pairFifo returns the pair's queue. All pairs are created at federation
// build time (addPairs), so the map is read-only while messages flow.
func (in *instr) pairFifo(from, to transport.Addr) *fifo {
	return in.fifos[[2]transport.Addr{from, to}]
}

func (in *instr) addPairs(addrs []transport.Addr) {
	for _, a := range addrs {
		for _, b := range addrs {
			in.fifos[[2]transport.Addr{a, b}] = &fifo{}
		}
	}
}

// layerOf names the package that owns a message: pastry's routing
// envelopes are opened (Payload/Body) so a scribe or core message riding
// inside one is attributed to its own layer.
func (in *instr) layerOf(msg any) string {
	v := reflect.ValueOf(msg)
	for depth := 0; depth < 4; depth++ {
		for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
			if v.IsNil() {
				return "pastry"
			}
			v = v.Elem()
		}
		layer := in.typeLayer(v.Type())
		if layer != "pastry" || v.Kind() != reflect.Struct {
			return layer
		}
		inner := v.FieldByName("Payload")
		if !inner.IsValid() {
			inner = v.FieldByName("Body")
		}
		if !inner.IsValid() || inner.Kind() != reflect.Interface || inner.IsNil() {
			return layer
		}
		v = inner
	}
	return "pastry"
}

func (in *instr) typeLayer(t reflect.Type) string {
	if l, ok := in.layerByType.Load(t); ok {
		return l.(string)
	}
	pkg := t.PkgPath()
	layer := pkg[strings.LastIndexByte(pkg, '/')+1:]
	if layer == "" {
		layer = "pastry" // builtin payloads only ride pastry RPC bodies
	}
	in.layerByType.Store(t, layer)
	return layer
}

// ---------------------------------------------------------------------------
// transport.Network / Endpoint / Handler

// netWrap decorates one node's transport.Network.
type netWrap struct {
	inner   transport.Network
	in      *instr
	gateway bool // measure After(0) lag on this node
}

func (w *netWrap) NewEndpoint(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	in := w.in
	ep, err := w.inner.NewEndpoint(addr, func(from transport.Addr, msg any) {
		now := nowNs()
		sent, ok := in.pairFifo(from, addr).pop()
		if !ok {
			in.c[cUnmatched].Add(1)
		}
		if !in.tr.on.Load() {
			h(from, msg)
			return
		}
		if ok {
			in.tr.add("tcpnet.deliver", "", sent, now)
			in.mu.Lock()
			in.deliverNs = append(in.deliverNs, now-sent)
			in.mu.Unlock()
		}
		layer := in.layerOf(msg)
		h(from, msg)
		in.tr.add("node.turn", layer, now, nowNs())
	})
	if err != nil {
		return nil, err
	}
	return &epWrap{Endpoint: ep, in: in, gateway: w.gateway}, nil
}

type epWrap struct {
	transport.Endpoint
	in      *instr
	gateway bool
}

func (e *epWrap) Send(to transport.Addr, msg any) error {
	in := e.in
	from := e.Addr()
	in.c[cMsgs].Add(1)
	if from.Site != to.Site {
		in.c[cCrossSiteMsgs].Add(1)
	}
	f := in.pairFifo(from, to)
	start := nowNs()
	f.push(start)
	err := e.Endpoint.Send(to, msg)
	if err != nil {
		f.dropLast()
	}
	if in.tr.on.Load() {
		in.tr.add("tcpnet.send", "", start, nowNs())
		if b, merr := wire.Marshal(msg); merr == nil {
			in.c[cMsgBytes].Add(int64(len(b)))
		}
		in.mu.Lock()
		if len(in.captured) < maxCaptured {
			in.captured = append(in.captured, msg)
		}
		in.mu.Unlock()
	}
	return err
}

func (e *epWrap) After(d time.Duration, fn func()) transport.CancelFunc {
	in := e.in
	due := nowNs() + int64(d)
	return e.Endpoint.After(d, func() {
		if !in.tr.on.Load() {
			fn()
			return
		}
		start := nowNs()
		if e.gateway && d == 0 {
			in.tr.add("node.timer_lag", "", due, start)
			in.mu.Lock()
			in.lagNs = append(in.lagNs, start-due)
			in.mu.Unlock()
		}
		fn()
		in.tr.add("node.turn", "timer", start, nowNs())
	})
}

// ---------------------------------------------------------------------------
// store.Dir / store.File: the device model

// snapTmp is the name store.Log writes an in-progress snapshot under.
const snapTmp = store.SnapName + ".tmp"

// devDir decorates a store.Dir: it performs the inner write and sync, then
// sleeps syncDelay per File.Sync and WriteFile — the modelled flush — and
// counts writes, bytes and syncs.
type devDir struct {
	inner     store.Dir
	in        *instr
	syncDelay time.Duration
	snapStart int64 // start of the snapshot being written (Log holds its mutex)
}

func (d *devDir) flush(start int64) {
	if d.syncDelay > 0 {
		time.Sleep(d.syncDelay)
	}
	end := nowNs()
	d.in.c[cDevSyncs].Add(1)
	d.in.mu.Lock()
	d.in.syncNs = append(d.in.syncNs, end-start)
	d.in.mu.Unlock()
	d.in.tr.add("store.dev_sync", "", start, end)
}

func (d *devDir) ReadFile(name string) ([]byte, bool, error) { return d.inner.ReadFile(name) }

func (d *devDir) WriteFile(name string, data []byte) error {
	start := nowNs()
	if name == snapTmp {
		d.snapStart = start
		d.in.c[cCompactions].Add(1)
	}
	d.in.c[cDevWrites].Add(1)
	d.in.c[cDevBytes].Add(int64(len(data)))
	err := d.inner.WriteFile(name, data)
	d.flush(start)
	return err
}

func (d *devDir) OpenAppend(name string) (store.File, error) {
	f, err := d.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &devFile{File: f, d: d}, nil
}

func (d *devDir) Rename(oldName, newName string) error {
	err := d.inner.Rename(oldName, newName)
	if oldName == snapTmp {
		dur := nowNs() - d.snapStart
		d.in.mu.Lock()
		if dur > d.in.compactMax {
			d.in.compactMax = dur
		}
		d.in.mu.Unlock()
	}
	return err
}

func (d *devDir) Remove(name string) error { return d.inner.Remove(name) }

type devFile struct {
	store.File
	d *devDir
}

func (f *devFile) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := f.File.Write(p)
	f.d.in.c[cDevWrites].Add(1)
	f.d.in.c[cDevBytes].Add(int64(n))
	f.d.in.tr.add("store.dev_write", "", start, nowNs())
	return n, err
}

func (f *devFile) Sync() error {
	start := nowNs()
	err := f.File.Sync()
	f.d.flush(start)
	return err
}

// ---------------------------------------------------------------------------
// core.Store and ops.Store

// coreStoreWrap times the Record* calls a node makes on its event context;
// each one stalls the loop until the frame is durable.
type coreStoreWrap struct {
	core.Store
	in *instr
}

func (s *coreStoreWrap) timed(start int64) {
	end := nowNs()
	s.in.c[cCoreRecords].Add(1)
	s.in.c[cCoreRecordNs].Add(end - start)
	s.in.tr.add("core.record", "", start, end)
}

func (s *coreStoreWrap) RecordSet(name string, value any) {
	defer s.timed(nowNs())
	s.Store.RecordSet(name, value)
}

func (s *coreStoreWrap) RecordSetBatch(entries []store.BatchSet) {
	defer s.timed(nowNs())
	s.Store.RecordSetBatch(entries)
}

func (s *coreStoreWrap) RecordReserve(queryID string, expires time.Time) {
	defer s.timed(nowNs())
	s.Store.RecordReserve(queryID, expires)
}

func (s *coreStoreWrap) RecordCommit(queryID string) {
	defer s.timed(nowNs())
	s.Store.RecordCommit(queryID)
}

func (s *coreStoreWrap) RecordRelease(queryID string) {
	defer s.timed(nowNs())
	s.Store.RecordRelease(queryID)
}

// SetMetrics keeps the WAL's own series wired into the node's registry,
// which core.New does only for stores that expose the method.
func (s *coreStoreWrap) SetMetrics(reg *metrics.Registry) {
	if sm, ok := s.Store.(interface{ SetMetrics(*metrics.Registry) }); ok {
		sm.SetMetrics(reg)
	}
}

// opsStoreWrap times the op-record writes of the gateway's engine.
type opsStoreWrap struct {
	inner ops.Store
	in    *instr
}

func (s *opsStoreWrap) timed(start int64) {
	end := nowNs()
	s.in.c[cOpsRecords].Add(1)
	s.in.c[cOpsRecordNs].Add(end - start)
	s.in.tr.add("ops.record_op", "", start, end)
}

func (s *opsStoreWrap) RecordOp(op store.StoredOp) {
	defer s.timed(nowNs())
	s.inner.RecordOp(op)
}

func (s *opsStoreWrap) RecordOpDelete(id string) {
	defer s.timed(nowNs())
	s.inner.RecordOpDelete(id)
}

// ---------------------------------------------------------------------------
// http.Handler

type httpWrap struct {
	inner http.Handler
	in    *instr
}

func (h *httpWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.in.c[cHTTPRequests].Add(1)
	if !h.in.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := nowNs()
	h.inner.ServeHTTP(w, r)
	h.in.tr.add("httpgw.request", route(r.Method, r.URL.Path), start, nowNs())
}

// route reduces a request to its mux pattern: method plus first segment.
func route(method, path string) string {
	p := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return method + " /" + p
}
