package main

// The four workloads: seeded request generators, the closed-loop HTTP
// clients that drive them, and the correctness checks made on every reply.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rbay/internal/naming"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wLeaseCycle = "lease_cycle"
	wTreeRead   = "tree_read"
	wAttrChurn  = "attr_churn"
	wMixedRW    = "mixed_rw"
)

var workloadNames = []string{wLeaseCycle, wTreeRead, wAttrChurn, wMixedRW}

// reserveZql is the customer query of lease_cycle.
const reserveZql = "SELECT 2 FROM * WHERE GPU = true;"

const (
	pollInterval = time.Millisecond
	batchSize    = 32  // updates per attr_churn batch
	churnKeys    = 512 // names the zipf draw picks from, per client
	opTimeout    = 30 * time.Second
)

// ---------------------------------------------------------------------------
// Generators: everything sent is a function of (seed, client, index).

// unit is one generated unit op: the request that starts it.
type unit struct {
	Kind string // wLeaseCycle, wTreeRead or wAttrChurn
	Path string
	Body []byte
	// final is an attr batch's last value per key; it feeds the
	// expected-state model once the batch is done.
	final map[string]float64
}

type generator struct {
	workload string
	client   int
	rng      *rand.Rand
	zipf     *rand.Zipf
	n        int                // units generated so far
	last     map[string]float64 // this client's last written value per key
	cpuHigh  bool
	memBig   bool
}

func newGenerator(workload string, seed int64, client int) *generator {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))
	return &generator{
		workload: workload,
		client:   client,
		rng:      rng,
		zipf:     rand.NewZipf(rng, 1.1, 1, churnKeys-1),
		last:     map[string]float64{},
	}
}

// next returns the client's next unit op. In mixed_rw client 0 reads and
// client 1 writes four batches then one lease cycle, repeating.
func (g *generator) next() unit {
	kind := g.workload
	if g.workload == wMixedRW {
		switch {
		case g.client == 0:
			kind = wTreeRead
		case g.n%5 == 4:
			kind = wLeaseCycle
		default:
			kind = wAttrChurn
		}
	}
	g.n++
	switch kind {
	case wTreeRead:
		return unit{Kind: kind, Path: "/trees/" + trees[g.rng.Intn(len(trees))].Name}
	case wAttrChurn:
		return g.batch()
	default:
		body, _ := json.Marshal(map[string]string{
			"query": reserveZql, "password": password, "caller": fmt.Sprintf("bench-c%d", g.client),
		})
		return unit{Kind: kind, Path: "/reserve", Body: body}
	}
}

type update struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// batch draws 30 keys zipf(1.1) from the client's own names, so a batch
// repeats keys and the ingest stage coalesces them; about one update in
// sixteen re-posts the value the key already holds (the no-op path); the
// last two move cpu_util and mem_gb across their tree thresholds, so the
// gateway node flips membership and pushes new aggregates.
func (g *generator) batch() unit {
	ups := make([]update, 0, batchSize)
	final := map[string]float64{}
	for i := 0; i < batchSize-2; i++ {
		name := fmt.Sprintf("c%d.m%04d", g.client, g.zipf.Uint64())
		v := float64(g.rng.Intn(1000))
		if old, ok := g.last[name]; ok && g.rng.Intn(16) == 0 {
			v = old
		}
		g.last[name] = v
		final[name] = v
		ups = append(ups, update{name, v})
	}
	g.cpuHigh, g.memBig = !g.cpuHigh, !g.memBig
	cpu := float64(g.rng.Intn(50))
	if g.cpuHigh {
		cpu += 50
	}
	mem := []float64{8, 16}[g.rng.Intn(2)]
	if g.memBig {
		mem *= 4
	}
	ups = append(ups, update{"cpu_util", cpu}, update{"mem_gb", mem})
	final["cpu_util"], final["mem_gb"] = cpu, mem
	body, _ := json.Marshal(map[string][]update{"updates": ups})
	return unit{Kind: wAttrChurn, Path: "/attrs", Body: body, final: final}
}

// ---------------------------------------------------------------------------
// Checker: the harness's own model of what the federation must answer.

type sharedWrite struct {
	val        float64
	start, end int64
}

type checker struct {
	mu sync.Mutex
	// live maps a candidate to the lease holding it, from the reserve's
	// terminal reply until its release is sent.
	live map[string]string
	// expected is, per written key, each client's last acknowledged value;
	// the key's final value must be one of them.
	expected map[string]map[int]float64
	// base is the gateway site's member count per tree without the
	// gateway node; gwSettled is the gateway node's value of each tree
	// attribute as of countLag ago (at first, what it posted at start);
	// writes are the acknowledged churn writes since then.
	base      map[string]int64
	gwSettled map[string]float64
	writes    map[string][]sharedWrite

	notes []string // the first few violations, for the report
}

func newChecker(f *federation) *checker {
	c := &checker{
		live:      map[string]string{},
		expected:  map[string]map[int]float64{},
		base:      map[string]int64{},
		gwSettled: map[string]float64{},
		writes:    map[string][]sharedWrite{},
	}
	for _, def := range trees {
		for _, n := range f.nodes {
			if n != f.gw && n.addr.Site == f.gw.addr.Site && def.Pred.Eval(n.attrs[def.Pred.Attr]) {
				c.base[def.Name]++
			}
		}
		if v, ok := f.gw.attrs[def.Pred.Attr].(float64); ok {
			c.gwSettled[def.Pred.Attr] = v
		}
	}
	return c
}

// note keeps a violation's description; the caller counts it.
func (c *checker) note(format string, args ...any) {
	c.mu.Lock()
	if len(c.notes) < 10 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// hold records a done reserve's candidates; it fails if the reserve did
// not return exactly two distinct candidates or one of them is in
// another live lease.
func (c *checker) hold(lease string, cands []candidate) error {
	if len(cands) != 2 || cands[0] == cands[1] {
		return fmt.Errorf("reserve %s returned candidates %v, want 2 distinct", lease, cands)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for _, cand := range cands {
		key := cand.Site + "/" + cand.Host
		if other, held := c.live[key]; held {
			err = fmt.Errorf("%s is in live leases %s and %s", key, other, lease)
		}
		c.live[key] = lease
	}
	return err
}

func (c *checker) unhold(lease string, cands []candidate) {
	c.mu.Lock()
	for _, cand := range cands {
		key := cand.Site + "/" + cand.Host
		if c.live[key] == lease {
			delete(c.live, key)
		}
	}
	c.mu.Unlock()
}

// wrote folds a done batch into the expected state.
func (c *checker) wrote(client int, final map[string]float64, start, end int64) {
	c.mu.Lock()
	for name, v := range final {
		if c.expected[name] == nil {
			c.expected[name] = map[int]float64{}
		}
		c.expected[name][client] = v
		if _, shared := c.gwSettled[name]; shared {
			c.writes[name] = append(c.writes[name], sharedWrite{v, start, end})
		}
	}
	c.mu.Unlock()
}

// countLag bounds how long a membership change may take to show in a
// tree root's count: one membership pass plus a few aggregate pushes,
// doubled for slack.
const countLag = 2 * int64(membershipInterval+4*aggregateInterval)

// countOK reports whether a tree count read over [start,end] matches the
// model: the site's other members plus the gateway node's own membership
// under any attribute value it may have held within countLag of the read.
func (c *checker) countOK(def naming.TreeDef, got int64, start, end int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	attr := def.Pred.Attr
	cur, tracked := c.gwSettled[attr]
	if !tracked { // GPU: posted true once, never churned
		return got == c.base[def.Name]+1
	}
	ws := c.writes[attr]
	drop := 0
	for drop < len(ws) && ws[drop].end < start-countLag {
		cur = ws[drop].val
		drop++
	}
	c.gwSettled[attr], c.writes[attr] = cur, ws[drop:]
	member := func(v float64) int64 {
		if def.Pred.Eval(v) {
			return 1
		}
		return 0
	}
	if got == c.base[def.Name]+member(cur) {
		return true
	}
	for _, w := range ws[drop:] {
		if w.start <= end && got == c.base[def.Name]+member(w.val) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Clients

type candidate struct {
	NodeID string `json:"nodeId"`
	Site   string `json:"site"`
	Host   string `json:"host"`
}

// opSnap is the part of the gateway's op snapshot the harness reads.
type opSnap struct {
	OpID       string      `json:"opId"`
	State      string      `json:"state"`
	Candidates []candidate `json:"candidates"`
	Error      string      `json:"error"`
}

func (o opSnap) terminal() bool {
	return o.State == "done" || o.State == "failed" || o.State == "rolled-back"
}

// Step indices of opRecord.steps, in milliseconds.
const (
	stepAccept = iota
	stepReserve
	stepCommit
	stepRelease
	nSteps
)

// opRecord is one attempted unit op.
type opRecord struct {
	client     int
	kind       string
	start, end int64
	ok         bool
	steps      [nSteps]float64
}

type client struct {
	id    int
	base  string
	hc    *http.Client
	gen   *generator
	chk   *checker
	tr    *tracer
	posts *atomic.Int64 // accepted POSTs, all clients (warm-up gate)
	recs  []opRecord
}

func newClient(id int, base string, gen *generator, chk *checker, tr *tracer, posts *atomic.Int64) *client {
	return &client{
		id: id, base: base, gen: gen, chk: chk, tr: tr, posts: posts,
		// One keep-alive connection per client.
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   opTimeout,
		},
	}
}

// do sends one request and decodes a JSON reply into out.
func (c *client) do(method, path string, body []byte, out any) (status int, err error) {
	start := nowNs()
	defer func() { c.tr.add("client.request", route(method, path), start, nowNs()) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// submit posts one async operation and follows it to a terminal state by
// polling GET /ops/{id}. acceptMs is POST sent → 202 received.
func (c *client) submit(path string, body []byte) (op opSnap, acceptMs float64, err error) {
	start := nowNs()
	status, err := c.do(http.MethodPost, path, body, &op)
	if err != nil {
		return op, 0, err
	}
	if status != http.StatusAccepted {
		return op, 0, fmt.Errorf("POST %s: status %d (%s)", path, status, op.Error)
	}
	c.posts.Add(1)
	acceptMs = float64(nowNs()-start) / 1e6
	deadline := time.Now().Add(opTimeout)
	for !op.terminal() {
		if time.Now().After(deadline) {
			return op, acceptMs, fmt.Errorf("op %s not terminal after %v", op.OpID, opTimeout)
		}
		w := nowNs()
		time.Sleep(pollInterval)
		c.tr.add("client.poll_wait", "", w, nowNs())
		status, err := c.do(http.MethodGet, "/ops/"+op.OpID, nil, &op)
		if err != nil {
			return op, acceptMs, err
		}
		if status != http.StatusOK {
			return op, acceptMs, fmt.Errorf("GET /ops/%s: status %d", op.OpID, status)
		}
	}
	if op.State != "done" {
		return op, acceptMs, fmt.Errorf("op %s ended %s: %s", op.OpID, op.State, op.Error)
	}
	return op, acceptMs, nil
}

// runUnit performs the client's next unit op and records it.
func (c *client) runUnit() opRecord {
	u := c.gen.next()
	rec := opRecord{client: c.id, kind: u.Kind, start: nowNs()}
	var err error
	switch u.Kind {
	case wTreeRead:
		err = c.treeRead(u)
	case wAttrChurn:
		err = c.attrChurn(u, &rec)
	default:
		err = c.leaseCycle(u, &rec)
	}
	rec.end = nowNs()
	rec.ok = err == nil
	if err != nil {
		c.chk.note("client %d %s: %v", c.id, u.Kind, err)
	}
	c.recs = append(c.recs, rec)
	return rec
}

func (c *client) treeRead(u unit) error {
	var reply struct {
		Count int64 `json:"count"`
	}
	start := nowNs()
	status, err := c.do(http.MethodGet, u.Path, nil, &reply)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", u.Path, status)
	}
	for _, def := range trees {
		if "/trees/"+def.Name == u.Path && !c.chk.countOK(def, reply.Count, start, nowNs()) {
			return fmt.Errorf("GET %s: count %d does not match the membership model", u.Path, reply.Count)
		}
	}
	return nil
}

func (c *client) attrChurn(u unit, rec *opRecord) error {
	start := nowNs()
	_, accept, err := c.submit(u.Path, u.Body)
	rec.steps[stepAccept] = accept
	if err != nil {
		return err
	}
	c.chk.wrote(c.id, u.final, start, nowNs())
	return nil
}

func (c *client) leaseCycle(u unit, rec *opRecord) error {
	t0 := nowNs()
	res, accept, err := c.submit(u.Path, u.Body)
	rec.steps[stepAccept] = accept
	rec.steps[stepReserve] = float64(nowNs()-t0) / 1e6
	if err != nil {
		return err
	}
	held := c.chk.hold(res.OpID, res.Candidates)
	from, _ := json.Marshal(map[string]string{"fromOp": res.OpID})

	t1 := nowNs()
	_, _, cerr := c.submit("/commit", from)
	rec.steps[stepCommit] = float64(nowNs()-t1) / 1e6

	// The lease stops being live when its release is sent: the owner may
	// free the node, and another client reserve it, before this client
	// sees the release op's terminal state.
	c.chk.unhold(res.OpID, res.Candidates)
	t2 := nowNs()
	_, _, rerr := c.submit("/release", from)
	rec.steps[stepRelease] = float64(nowNs()-t2) / 1e6
	return errors.Join(held, cerr, rerr)
}
