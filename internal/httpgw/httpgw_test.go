package httpgw

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rbay/internal/core"
	"rbay/internal/naming"
	"rbay/internal/ops"
	"rbay/internal/scribe"
	"rbay/internal/store"
	"rbay/internal/tcpnet"
	"rbay/internal/transport"
)

// gwFixture is a two-node TCP federation with a gateway on the first
// node. Composed like rbayd -data-dir: the gateway node records into a WAL
// (on an in-memory disk) that its ops engine shares.
type gwFixture struct {
	ts    *httptest.Server
	gw    *Server
	nodes []*core.Node
	disk  *store.MemDir

	reg   *naming.Registry
	cfg   core.Config
	nets  [2]*tcpnet.Network
	mu    sync.Mutex
	table map[transport.Addr]string // the resolver's address book
}

func newFixture(t *testing.T) *gwFixture {
	return newFixtureOpts(t, 0, Options{Timeout: 15 * time.Second})
}

func newFixtureOpts(t *testing.T, ttl time.Duration, opts Options) *gwFixture {
	t.Helper()
	return newFixtureDisk(t, ttl, opts, func(d *store.MemDir) store.Dir { return d })
}

// newFixtureDisk lets a test decorate the gateway node's disk.
func newFixtureDisk(t *testing.T, ttl time.Duration, opts Options, wrap func(*store.MemDir) store.Dir) *gwFixture {
	t.Helper()
	if ttl <= 0 {
		ttl = time.Second
	}
	core.RegisterWire()
	reg := naming.NewRegistry()
	reg.MustDefine(naming.TreeDef{
		Name: "GPU", Pred: naming.Pred{Attr: "GPU", Op: naming.OpEq, Value: true}, Creator: "gw",
	})
	f := &gwFixture{
		reg: reg,
		// The short query timeouts keep TestQueryFailureStatus quick; a
		// loopback peer answers in milliseconds.
		cfg: core.Config{
			Scribe:             scribe.Config{AggregateInterval: 200 * time.Millisecond, AggQueryTimeout: 2 * time.Second},
			MembershipInterval: 300 * time.Millisecond,
			ReserveTTL:         ttl,
			SiteQueryTimeout:   time.Second,
		},
		table: map[transport.Addr]string{},
	}
	disk := store.NewMemDir()
	log, _, err := store.Open(wrap(disk), store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if opts.Ops == nil && opts.OpsStore == nil {
		opts.OpsStore = log
	}
	var nodes []*core.Node
	for i := 0; i < 2; i++ {
		var st core.Store
		if i == 0 {
			st = log
		}
		nodes = append(nodes, f.startNode(t, i, st))
	}
	nodes[0].DoWait(func() { nodes[0].Pastry().BootstrapAlone() })
	joined := make(chan struct{})
	var joinErr error
	nodes[1].DoWait(func() {
		joinErr = nodes[1].Pastry().JoinGlobal(nodes[0].Addr(), func() { close(joined) })
	})
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("join timed out")
	}
	nodes[1].DoWait(func() { _ = nodes[1].Pastry().JoinSite(nodes[0].Addr(), nil) })

	gw := NewGateway(nodes[0], opts)
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	f.ts, f.gw, f.nodes, f.disk = ts, gw, nodes, disk
	f.waitTree(t)
	return f
}

// startNode brings up lab/n<i> on a fresh TCP listener, recording into st
// when it is not nil.
func (f *gwFixture) startNode(t *testing.T, i int, st core.Store) *core.Node {
	t.Helper()
	net, err := tcpnet.Listen("127.0.0.1:0", func(a transport.Addr) (string, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		hp, ok := f.table[a]
		if !ok {
			return "", fmt.Errorf("no peer %v", a)
		}
		return hp, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	f.nets[i] = net
	addr := transport.Addr{Site: "lab", Host: fmt.Sprintf("n%d", i)}
	cfg := f.cfg
	cfg.Store = st
	n, err := core.New(net, addr, f.reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.table[addr] = net.ListenAddr()
	f.mu.Unlock()
	n.DoWait(func() {
		n.SetAttribute("GPU", true)
		n.SetDirectory(core.Directory{Sites: []string{"lab"}, Routers: map[string][]transport.Addr{
			"lab": {addr},
		}})
	})
	return n
}

// waitTree waits until the GPU tree holds both members.
func (f *gwFixture) waitTree(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var stats struct {
			Count int64 `json:"count"`
		}
		if f.getJSON(t, "/trees/GPU", &stats) == http.StatusOK && stats.Count == 2 {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatal("GPU tree never converged to 2 members")
}

func (f *gwFixture) getJSON(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// postOp submits one async operation and decodes whatever comes back —
// an op snapshot on accept, an errorJSON on rejection.
func (f *gwFixture) postOp(t *testing.T, path, body string, hdr map[string]string) (int, ops.Op, errorJSON) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var op ops.Op
	var ej errorJSON
	_ = json.Unmarshal(raw, &op)
	_ = json.Unmarshal(raw, &ej)
	return resp.StatusCode, op, ej
}

// waitOp polls GET /ops/{id} until the op reaches a terminal state.
func (f *gwFixture) waitOp(t *testing.T, id string) ops.Op {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var op ops.Op
		if f.getJSON(t, "/ops/"+id, &op) == http.StatusOK && op.State.Terminal() {
			return op
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("op %s never reached a terminal state", id)
	return ops.Op{}
}

func TestGatewayEndToEnd(t *testing.T) {
	f := newFixture(t)

	// Health.
	if code := f.getJSON(t, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Tree stats.
	var stats struct {
		Count int64   `json:"count"`
		Mean  float64 `json:"mean"`
	}
	if code := f.getJSON(t, "/trees/GPU", &stats); code != http.StatusOK {
		t.Fatalf("trees = %d", code)
	}
	if stats.Count != 2 || stats.Mean != 1.0 {
		t.Fatalf("stats = %+v", stats)
	}
	if code := f.getJSON(t, "/trees/nonexistent", nil); code != http.StatusNotFound {
		t.Fatalf("unknown tree = %d", code)
	}

	// Query.
	var qr struct {
		QueryID    string `json:"queryId"`
		Candidates []struct {
			Site string `json:"site"`
			Host string `json:"host"`
		} `json:"candidates"`
		Error string `json:"error"`
	}
	path := "/query?q=" + url.QueryEscape("SELECT * FROM lab WHERE GPU = true;")
	if code := f.getJSON(t, path, &qr); code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	if qr.Error != "" {
		t.Fatal(qr.Error)
	}
	if len(qr.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(qr.Candidates))
	}

	// Release through the gateway: the mutating surface is async, so the
	// submission lands a pending op (202) that we poll to its terminal
	// state.
	body, _ := json.Marshal(map[string]any{
		"queryId": qr.QueryID,
		"candidates": []map[string]string{
			{"site": qr.Candidates[0].Site, "host": qr.Candidates[0].Host},
			{"site": qr.Candidates[1].Site, "host": qr.Candidates[1].Host},
		},
	})
	code, relOp, _ := f.postOp(t, "/release", string(body), nil)
	if code != http.StatusAccepted || relOp.ID == "" {
		t.Fatalf("release submit = %d (%+v)", code, relOp)
	}
	if final := f.waitOp(t, relOp.ID); final.State != ops.StateDone {
		t.Fatalf("release op ended %s: %s", final.State, final.Error)
	}

	// Attributes view and update.
	var attrs map[string]any
	if code := f.getJSON(t, "/attrs", &attrs); code != http.StatusOK {
		t.Fatalf("attrs = %d", code)
	}
	if attrs["GPU"] != true {
		t.Fatalf("attrs = %v", attrs)
	}
	req, _ := http.NewRequest(http.MethodPut, f.ts.URL+"/attrs/mem_gb?value=16", nil)
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("put attr = %d", putResp.StatusCode)
	}
	f.getJSON(t, "/attrs", &attrs)
	if attrs["mem_gb"] != 16.0 {
		t.Fatalf("mem_gb = %v", attrs["mem_gb"])
	}

	// Policy attach (bad script rejected, good accepted).
	resp, _ := http.Post(f.ts.URL+"/policies/GPU", "text/plain", strings.NewReader("not a script ("))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy = %d", resp.StatusCode)
	}
	resp, err = http.Post(f.ts.URL+"/policies/GPU", "text/plain", strings.NewReader(`
		AA = {Password = "pw"}
		function onGet(caller, password)
			if password == AA.Password then return NodeId end
			return nil
		end
	`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy = %d", resp.StatusCode)
	}

	// The gateway node now requires the password.
	var qr2 struct {
		Candidates []any `json:"candidates"`
	}
	f.getJSON(t, path, &qr2)
	if len(qr2.Candidates) != 1 {
		t.Fatalf("without password: %d candidates, want only the unprotected node", len(qr2.Candidates))
	}
	// The unauthenticated query released what it found, so asking again
	// needs no wait.
	var qr3 struct {
		Candidates []any `json:"candidates"`
	}
	f.getJSON(t, path+"&password=pw", &qr3)
	if len(qr3.Candidates) != 2 {
		t.Fatalf("with password: %d candidates, want 2", len(qr3.Candidates))
	}

	// Admin command delivery.
	resp, _ = http.Post(f.ts.URL+"/deliver/GPU", "application/json", strings.NewReader(`{"price": 2.5}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deliver = %d", resp.StatusCode)
	}

	// Malformed inputs.
	if code := f.getJSON(t, "/query", nil); code != http.StatusBadRequest {
		t.Fatalf("missing q = %d", code)
	}
	if code := f.getJSON(t, "/query?q=SELEKT", nil); code != http.StatusBadRequest {
		t.Fatalf("bad sql = %d", code)
	}
}

// TestQueryHoldsNothing: GET /query is a read. Right after its reply the
// same query finds the same nodes with no conflict, under a ReserveTTL
// far longer than the test.
func TestQueryHoldsNothing(t *testing.T) {
	f := newFixtureOpts(t, time.Minute, Options{Timeout: 15 * time.Second})
	path := "/query?q=" + url.QueryEscape("SELECT 2 FROM lab WHERE GPU = true;")
	hosts := func(r queryResponse) string {
		var hs []string
		for _, c := range r.Candidates {
			hs = append(hs, c.Host)
		}
		sort.Strings(hs)
		return strings.Join(hs, ",")
	}
	var first queryResponse
	if code := f.getJSON(t, path, &first); code != http.StatusOK || first.Error != "" || len(first.Candidates) != 2 {
		t.Fatalf("first query = %d %+v", code, first)
	}
	for i := 0; i < 3; i++ {
		var again queryResponse
		if code := f.getJSON(t, path, &again); code != http.StatusOK || again.Error != "" {
			t.Fatalf("query %d = %d %+v", i+2, code, again)
		}
		if hosts(again) != hosts(first) || again.Conflicts != 0 || again.Attempts != 1 {
			t.Fatalf("query %d found %q with %d conflicts in %d attempts, want %q with 0 in 1",
				i+2, hosts(again), again.Conflicts, again.Attempts, hosts(first))
		}
	}

	// A read served only from a view holds nothing either.
	resp, err := http.Post(f.ts.URL+"/views?"+strings.TrimPrefix(path, "/query?"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /views = %d", resp.StatusCode)
	}
	var r queryResponse
	deadline := time.Now().Add(10 * time.Second)
	for f.getJSON(t, path+"&view=only", &r) == http.StatusOK && len(r.Candidates) < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond) // the view fills from tree updates
	}
	for i := 0; i < 2; i++ {
		if code := f.getJSON(t, path+"&view=only", &r); code != http.StatusOK || r.Error != "" ||
			hosts(r) != hosts(first) || r.Conflicts != 0 {
			t.Fatalf("view read %d = %d, found %q with %d conflicts (err %q), want %q with 0",
				i+2, code, hosts(r), r.Conflicts, r.Error, hosts(first))
		}
	}
}

// restartGateway kills the gateway node and brings it back from a crash
// copy of its disk the way rbayd -data-dir does: restore, rejoin through
// n1, refederate, then a new gateway whose engine replays the op records.
func (f *gwFixture) restartGateway(t *testing.T) {
	t.Helper()
	f.nets[0].Close()
	log, state, err := store.Open(f.disk.CrashCopy(), store.Options{Policy: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	n := f.startNode(t, 0, log)
	joined := make(chan struct{})
	var joinErr error
	n.DoWait(func() {
		if joinErr = n.Restore(state); joinErr == nil {
			joinErr = n.Pastry().JoinGlobal(f.nodes[1].Addr(), func() { close(joined) })
		}
	})
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("rejoin timed out")
	}
	n.DoWait(func() {
		_ = n.Pastry().JoinSite(f.nodes[1].Addr(), nil)
		n.Refederate()
	})
	gw := NewGateway(n, Options{Timeout: 15 * time.Second, OpsStore: log})
	gw.Engine().Restore(state.Ops)
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	f.ts, f.gw, f.nodes[0] = ts, gw, n
	f.waitTree(t)
}

// TestReadAfterRestartKeepsCommitted: a read releases what it finds, so a
// restarted gateway must never mint a query ID its previous process used.
// Both nodes are committed to an op; after the gateway restarts from its
// disk, reads until its query counter passes the op's find nothing, and
// both leases still belong to the op.
func TestReadAfterRestartKeepsCommitted(t *testing.T) {
	f := newFixtureOpts(t, time.Minute, Options{Timeout: 15 * time.Second})
	code, rop, _ := f.postOp(t, "/reserve", `{"query":"SELECT 2 FROM lab WHERE GPU = true;"}`, nil)
	if code != http.StatusAccepted {
		t.Fatalf("reserve submit = %d", code)
	}
	res := f.waitOp(t, rop.ID)
	if res.State != ops.StateDone || len(res.Candidates) != 2 {
		t.Fatalf("reserve ended %s with %d candidates: %s", res.State, len(res.Candidates), res.Error)
	}
	code, cop, _ := f.postOp(t, "/commit", `{"fromOp":"`+rop.ID+`"}`, nil)
	if code != http.StatusAccepted {
		t.Fatalf("commit submit = %d", code)
	}
	if fin := f.waitOp(t, cop.ID); fin.State != ops.StateDone {
		t.Fatalf("commit ended %s: %s", fin.State, fin.Error)
	}

	f.restartGateway(t)
	seq, err := strconv.Atoi(res.QueryID[strings.LastIndexAny(res.QueryID, "#.")+1:])
	if err != nil {
		t.Fatalf("query ID %q: %v", res.QueryID, err)
	}
	path := "/query?q=" + url.QueryEscape("SELECT * FROM lab WHERE GPU = true;")
	for i := 0; i <= seq; i++ {
		var r queryResponse
		if code := f.getJSON(t, path, &r); code != http.StatusOK || len(r.Candidates) != 0 {
			t.Fatalf("read %s after restart = %d %+v, want no candidates", r.QueryID, code, r)
		}
		if r.QueryID == res.QueryID {
			t.Fatalf("restarted gateway reused query ID %s", r.QueryID)
		}
	}
	for _, n := range f.nodes {
		n.DoWait(func() {
			if q, c, ok := n.Reserved(); !ok || !c || q != res.QueryID {
				t.Errorf("%s: Reserved() = %q committed=%v held=%v, want %q committed", n.Addr(), q, c, ok, res.QueryID)
			}
		})
	}
}

// TestQueryFailureStatus: a query that ran and failed answers non-2xx
// with a stable code, and its body keeps the query's ID, what it found and
// its trace.
func TestQueryFailureStatus(t *testing.T) {
	f := newFixture(t)
	gw := f.nodes[0]
	// Site far's router accepts connections and never answers.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })
	far := transport.Addr{Site: "far", Host: "r0"}
	f.mu.Lock()
	f.table[far] = silent.Addr().String()
	f.mu.Unlock()
	gw.DoWait(func() {
		gw.SetDirectory(core.Directory{Sites: []string{"lab", "far"}, Routers: map[string][]transport.Addr{
			"lab": {gw.Addr()}, "far": {far},
		}})
	})

	for _, tc := range []struct {
		name   string
		setup  func(t *testing.T)
		query  string
		status int
		code   string
		found  int // candidates the body still carries
	}{
		{name: "no view", query: "view=only&q=" + url.QueryEscape("SELECT 1 FROM lab WHERE GPU = true;"),
			status: http.StatusNotFound, code: codeNotFound},
		{name: "site timeout", query: "q=" + url.QueryEscape("SELECT 3 FROM lab, far WHERE GPU = true;"),
			status: http.StatusGatewayTimeout, code: codeGatewayTimeout, found: 2},
		{name: "no router", query: "q=" + url.QueryEscape("SELECT 1 FROM nowhere WHERE GPU = true;"),
			status: http.StatusBadGateway, code: codeSiteFailed},
		{name: "store failed", setup: func(t *testing.T) {
			f.disk.SetFaults(store.Faults{Sync: errors.New("injected fsync error")})
			gw.DoWait(func() { gw.SetAttribute("load", 1.0) })
			select {
			case <-gw.StoreFailed():
			case <-time.After(5 * time.Second):
				t.Fatal("the gateway node's store never failed")
			}
		}, query: "q=" + url.QueryEscape("SELECT 1 FROM lab WHERE GPU = true;"),
			status: http.StatusServiceUnavailable, code: codeStoreFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				tc.setup(t)
			}
			var r queryResponse
			status := f.getJSON(t, "/query?explain=1&"+tc.query, &r)
			if status != tc.status || r.Code != tc.code || r.Error == "" {
				t.Fatalf("status %d code %q error %q, want %d %s", status, r.Code, r.Error, tc.status, tc.code)
			}
			if r.QueryID == "" || r.Trace == nil || r.Explain == "" {
				t.Fatalf("failed query's body lost its ID or trace: %+v", r)
			}
			if len(r.Candidates) != tc.found {
				t.Fatalf("body carries %d candidates, want %d: %+v", len(r.Candidates), tc.found, r.Candidates)
			}
		})
	}
}

func TestGatewayObservability(t *testing.T) {
	f := newFixture(t)

	// A query with ?explain=1 returns its span tree and rendered outline.
	var qr struct {
		QueryID string          `json:"queryId"`
		Trace   json.RawMessage `json:"trace"`
		Explain string          `json:"explain"`
	}
	path := "/query?explain=1&q=" + url.QueryEscape("SELECT * FROM lab WHERE GPU = true;")
	if code := f.getJSON(t, path, &qr); code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	if len(qr.Trace) == 0 {
		t.Fatal("explain=1 returned no trace")
	}
	for _, want := range []string{"query", "plan", "site lab", "merge"} {
		if !strings.Contains(qr.Explain, want) {
			t.Errorf("explain output missing %q:\n%s", want, qr.Explain)
		}
	}

	// The query shows up in the Prometheus exposition.
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1<<20)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	prom := string(raw[:n])
	for _, want := range []string{"rbay_queries_total 1", "rbay_query_latency_seconds_count", "pastry_delivered_total"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// And in the recent-query listing (traces elided there).
	var recs []struct {
		QueryID string          `json:"queryId"`
		Trace   json.RawMessage `json:"trace"`
	}
	if code := f.getJSON(t, "/debug/queries", &recs); code != http.StatusOK {
		t.Fatalf("debug/queries = %d", code)
	}
	if len(recs) != 1 || recs[0].QueryID != qr.QueryID {
		t.Fatalf("recent queries = %+v, want the one just run", recs)
	}
	if len(recs[0].Trace) != 0 {
		t.Fatal("listing must elide traces")
	}

	// The per-query endpoint serves the full record and a text rendering.
	var rec struct {
		QueryID string          `json:"queryId"`
		Trace   json.RawMessage `json:"trace"`
	}
	if code := f.getJSON(t, "/debug/queries/"+url.PathEscape(qr.QueryID), &rec); code != http.StatusOK {
		t.Fatalf("debug/queries/{id} = %d", code)
	}
	if rec.QueryID != qr.QueryID || len(rec.Trace) == 0 {
		t.Fatalf("record = %+v", rec)
	}
	txt, err := http.Get(f.ts.URL + "/debug/queries/" + url.PathEscape(qr.QueryID) + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = txt.Body.Read(raw)
	txt.Body.Close()
	if !strings.Contains(string(raw[:n]), "site lab") {
		t.Fatalf("text trace missing site span:\n%s", raw[:n])
	}
	if code := f.getJSON(t, "/debug/queries/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown query id = %d", code)
	}
}
