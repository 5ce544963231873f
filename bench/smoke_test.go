package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"rbay/internal/transport"
)

// TestNamesMatchBenchmarkJSON fails when the metric or workload names the
// program prints and the ones BENCHMARK.json promises drift apart, in
// either direction.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%+v\nthe program reports\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has\n%+v\nthe program reports\n%+v", spec.PerLayer, perLayer)
	}
}

// smokeConfig is a 2 × 3 federation with 200 ms windows.
func smokeConfig(t *testing.T, workload string, traced bool) runConfig {
	cfg := defaultConfig(workload, 7, 200*time.Millisecond, traced)
	cfg.fed.nodesPerSite, cfg.fed.gateway = 3, 1
	cfg.setups, cfg.warmup, cfg.warmPosts = 1, 100*time.Millisecond, 0
	cfg.probeDur, cfg.outDir = 5*time.Millisecond, t.TempDir()
	return cfg
}

// TestSmoke runs every workload end to end on a small federation and
// checks that each run is correct and reports exactly the promised names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds federations over loopback TCP")
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if !traced && w != wLeaseCycle {
				continue // the traced run's first phase is the same code path
			}
			res, err := run(smokeConfig(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w, traced, res.Failed, res.Attempted, res.Notes)
			}
			defs := defsOf(traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d promised", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if _, err := resultLine(res); err != nil {
				t.Errorf("%s traced=%v: result line: %v", w, traced, err)
			}
		}
	}
}

// stream renders the first n units of one client's request stream.
func stream(workload string, seed int64, client, n int) []byte {
	var b bytes.Buffer
	g := newGenerator(workload, seed, client)
	for i := 0; i < n; i++ {
		u := g.next()
		b.WriteString(u.Kind + " " + u.Path + " ")
		b.Write(u.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloadNames {
		for client := 0; client < 2; client++ {
			a, b := stream(w, 42, client, 200), stream(w, 42, client, 200)
			if !bytes.Equal(a, b) {
				t.Errorf("%s client %d: seed 42 generated two different request streams", w, client)
			}
			if w != wLeaseCycle && bytes.Equal(a, stream(w, 43, client, 200)) {
				t.Errorf("%s client %d: seeds 42 and 43 generated the same request stream", w, client)
			}
		}
	}
}

// fakeNet delivers a sent message to its destination's handler at once and
// in order, which is all the FIFO matching needs from a transport.
type fakeNet struct {
	handlers map[transport.Addr]transport.Handler
}

type fakeEndpoint struct {
	net  *fakeNet
	addr transport.Addr
}

func (n *fakeNet) NewEndpoint(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	n.handlers[addr] = h
	return &fakeEndpoint{n, addr}, nil
}

func (e *fakeEndpoint) Addr() transport.Addr { return e.addr }
func (e *fakeEndpoint) Now() time.Time       { return time.Now() }
func (e *fakeEndpoint) Close() error         { return nil }

func (e *fakeEndpoint) Send(to transport.Addr, msg any) error {
	h, ok := e.net.handlers[to]
	if !ok {
		return transport.ErrUnreachable
	}
	h(e.addr, msg)
	return nil
}

func (e *fakeEndpoint) After(_ time.Duration, fn func()) transport.CancelFunc {
	fn()
	return func() bool { return false }
}

// TestDecoratorsPassThrough sends through the transport decorator with
// tracing off and on: messages arrive unchanged and in order, a failed
// send leaves the send→deliver matching aligned, and spans are recorded
// only while tracing is on.
func TestDecoratorsPassThrough(t *testing.T) {
	a := transport.Addr{Site: "east", Host: "a"}
	b := transport.Addr{Site: "west", Host: "b"}
	gone := transport.Addr{Site: "west", Host: "gone"}
	in := newInstr()
	in.addPairs([]transport.Addr{a, b, gone})
	inner := &fakeNet{handlers: map[transport.Addr]transport.Handler{}}

	var got []any
	epA, err := (&netWrap{inner: inner, in: in}).NewEndpoint(a, func(transport.Addr, any) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&netWrap{inner: inner, in: in}).NewEndpoint(b, func(from transport.Addr, msg any) {
		if from != a {
			t.Errorf("message from %v, want %v", from, a)
		}
		got = append(got, msg)
	}); err != nil {
		t.Fatal(err)
	}

	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := epA.Send(b, i); err != nil {
				t.Fatal(err)
			}
			if err := epA.Send(gone, i); !errors.Is(err, transport.ErrUnreachable) {
				t.Fatalf("send to a missing endpoint: %v", err)
			}
		}
	}
	send(5)
	if len(in.tr.take()) != 0 {
		t.Error("spans recorded with tracing off")
	}
	in.tr.on.Store(true)
	send(5)
	in.tr.on.Store(false)

	want := []any{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	c := in.c.snap()
	if c[cMsgs] != 20 || c[cCrossSiteMsgs] != 20 || c[cUnmatched] != 0 {
		t.Errorf("counted %d messages, %d cross-site, %d unmatched; want 20, 20, 0", c[cMsgs], c[cCrossSiteMsgs], c[cUnmatched])
	}
	for pair, f := range in.fifos {
		if len(f.q) != 0 {
			t.Errorf("pair %v still holds %d send times", pair, len(f.q))
		}
	}
	delivers := 0
	for _, s := range in.tr.take() {
		if s.Name == "tcpnet.deliver" {
			delivers++
			if s.End < s.Start {
				t.Errorf("deliver span ends before it starts: %+v", s)
			}
		}
	}
	if delivers != 5 || len(in.deliverNs) != 5 {
		t.Errorf("%d deliver spans and %d samples for 5 traced messages", delivers, len(in.deliverNs))
	}
}

// TestFoldSelfTime checks parent assignment, self time and op coverage on
// a fixed span list: a holds b and c, which overlap; d is inside b only;
// e lies between unit ops.
func TestFoldSelfTime(t *testing.T) {
	spans := fold([]span{
		{Name: "e", Start: 200, End: 250},
		{Name: "c", Start: 30, End: 60},
		{Name: "a", Start: 0, End: 100},
		{Name: "d", Start: 15, End: 25},
		{Name: "b", Start: 10, End: 40},
	}, []window{{0, 150}, {300, 400}})
	type row struct {
		parent string
		op     int
		self   int64
	}
	want := map[string]row{
		"a": {"", 0, 50}, // 100 minus the union 10..60 of b and c
		"b": {"a", 0, 20},
		"c": {"a", 0, 30},
		"d": {"b", 0, 10},
		"e": {"", -1, 50},
	}
	for _, s := range spans {
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		if got := (row{parent, s.Op, s.Self}); got != want[s.Name] {
			t.Errorf("span %s: parent, op, self = %+v, want %+v", s.Name, got, want[s.Name])
		}
	}
	sum := summarize(spans, []window{{0, 150}, {300, 400}})
	// 100 of the 250 ns of op wall time are covered by a span.
	if sum.AttributedPct != 40 {
		t.Errorf("attributed %.1f%%, want 40%%", sum.AttributedPct)
	}
	if got := sum.SelfMsPerOp["a"] * 1e6 * 2; got != 50 {
		t.Errorf("self time of a summed over ops = %v ns, want 50", got)
	}
}
