package main

// One run: set the federation up, warm it, drive one workload through
// its phases, turn what the decorators saw into the named metrics, and
// make the end-of-run checks.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rbay/internal/ingest"
	"rbay/internal/tcpnet"
)

type runConfig struct {
	fed      fedConfig
	workload string
	seed     int64
	clients  int
	setups   int // federations built, so setup_s is a median
	warmup   time.Duration
	// warmPosts keeps a write workload warming until this many operations
	// were accepted: past the ops engine's retention of 512 terminal
	// records, every finished op also retires an old record, and the
	// measured window must see only that steady state.
	warmPosts int64
	window    time.Duration // measured time, split over the phases of a traced run
	trace     bool
	probeDur  time.Duration
	outDir    string
}

// defaultConfig is the committed benchmark: 2 sites × 8 nodes, gateway
// east/n0003, 2 closed-loop clients, 500 µs modelled flush.
func defaultConfig(workload string, seed int64, window time.Duration, trace bool) runConfig {
	return runConfig{
		fed: fedConfig{
			sites: []string{"east", "west"}, nodesPerSite: 8, gateway: 3,
			seed: seed, syncDelay: 500 * time.Microsecond,
		},
		workload: workload, seed: seed, clients: 2, setups: 3,
		warmup: 3 * time.Second, warmPosts: 600,
		window: window, trace: trace,
		probeDur: 150 * time.Millisecond, outDir: "bench/out",
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type envStamp struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"goVersion"`
	Commit       string  `json:"commit"`
	DataRoot     string  `json:"dataRoot"`
	FSType       string  `json:"fsType"`
	SyncDelayUs  float64 `json:"modelledFlushUs"`
	DevSyncMs    float64 `json:"measuredDevSyncMs"`
	Network      string  `json:"network"`
	Federation   string  `json:"federation"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	WarmupS      float64 `json:"warmupS"`
	WindowS      float64 `json:"windowS"`
	Phases       string  `json:"phases"`
	PollInterval string  `json:"pollInterval"`
}

type result struct {
	Env       envStamp `json:"env"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Samples   int      `json:"latencySamples"`
	// TailMs is the unit-op latency at p90, p95, p99, p99.9 and the maximum.
	TailMs  [5]float64        `json:"tailMs"`
	Metrics map[string]metric `json:"metrics"`
	Notes   []string          `json:"notes,omitempty"`
	Trace   *traceSummary     `json:"trace,omitempty"`
}

type runner struct {
	cfg     runConfig
	fed     *federation
	chk     *checker
	clients []*client
	posts   atomic.Int64
}

// snapshot is every cumulative count read at a phase boundary.
type snapshot struct {
	c                          counts
	cpu                        time.Duration
	alloc, gcPause             uint64
	visits, conflicts, surplus uint64
	tcp                        tcpnet.Stats
	ing                        ingest.Stats
	forwarded, originated      uint64
}

func (r *runner) snapshot() snapshot {
	s := snapshot{c: r.fed.in.c.snap(), ing: r.fed.gw.node.Ingest().QueueStats()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.gcPause = ms.TotalAlloc, ms.PauseTotalNs
	for _, n := range r.fed.nodes {
		reg := n.node.Metrics()
		s.visits += reg.Counter("rbay_visits_total")
		s.conflicts += reg.Counter("rbay_visit_conflicts_total")
		s.surplus += reg.Counter("rbay_surplus_released_total")
		ts := n.net.Stats()
		s.tcp.BatchFrames += ts.BatchFrames
		s.tcp.BatchedMessages += ts.BatchedMessages
		s.tcp.QueueDrops += ts.QueueDrops
		n := n
		n.node.DoWait(func() { // pastry's counters belong to the event context
			ps := n.node.Pastry().Stats()
			s.forwarded += ps.Forwarded
			s.originated += ps.Originated
		})
	}
	return s
}

// phase is one driven interval and what was counted across it.
type phase struct {
	start         int64 // nowNs when the clients started
	seconds       float64
	recs          []opRecord // ops of every client that ended inside the interval
	before, after snapshot
}

// units are the phase's unit ops: in mixed_rw the reader's, else all.
func (r *runner) units(p phase) []opRecord {
	if r.cfg.workload != wMixedRW {
		return p.recs
	}
	var out []opRecord
	for _, rec := range p.recs {
		if rec.client == 0 {
			out = append(out, rec)
		}
	}
	return out
}

// drive runs the clients closed-loop for dur. single drives one client
// (mixed_rw keeps its background writer: it is part of the workload).
// The closing snapshot is taken at the deadline, before the ops still in
// flight finish; those ops are not counted.
func (r *runner) drive(dur time.Duration, single, measured bool) phase {
	active := r.clients
	if single && r.cfg.workload != wMixedRW {
		active = active[:1]
	}
	marks := make([]int, len(active))
	for i, c := range active {
		marks[i] = len(c.recs)
	}
	var p phase
	if measured {
		p.before = r.snapshot()
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := nowNs()
	for _, c := range active {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.runUnit()
			}
		}()
	}
	time.Sleep(dur)
	end := nowNs()
	if measured {
		p.after = r.snapshot()
	}
	stop.Store(true)
	wg.Wait()
	p.start, p.seconds = start, float64(end-start)/1e9
	for i, c := range active {
		for _, rec := range c.recs[marks[i]:] {
			if rec.end <= end {
				p.recs = append(p.recs, rec)
			}
		}
	}
	return p
}

// setup builds a federation and has every client complete one unit op.
func (r *runner) setup() error {
	fed, err := buildFederation(r.cfg.fed)
	if err != nil {
		return err
	}
	r.fed, r.chk, r.clients = fed, newChecker(fed), nil
	for i := 0; i < r.cfg.clients; i++ {
		gen := newGenerator(r.cfg.workload, r.cfg.seed, i)
		r.clients = append(r.clients, newClient(i, fed.url, gen, r.chk, fed.in.tr, &r.posts))
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range r.clients {
		for !c.runUnit().ok {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: first unit op never succeeded: %v", r.chk.notes)
			}
		}
	}
	r.chk.notes = nil
	return nil
}

// teardown drops the clients' connections and stops the federation.
func (r *runner) teardown() {
	for _, c := range r.clients {
		c.hc.CloseIdleConnections()
	}
	if r.fed != nil {
		r.fed.close()
	}
}

func (r *runner) writes() bool { return r.cfg.workload != wTreeRead }

func (r *runner) warm() {
	start := time.Now()
	for time.Since(start) < r.cfg.warmup ||
		(r.writes() && r.posts.Load() < r.cfg.warmPosts && time.Since(start) < 30*time.Second) {
		r.drive(250*time.Millisecond, false, false)
	}
}

func okRecs(recs []opRecord) []opRecord {
	var out []opRecord
	for _, rec := range recs {
		if rec.ok {
			out = append(out, rec)
		}
	}
	return out
}

func latencies(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = float64(rec.end-rec.start) / 1e6
	}
	return out
}

// steps collects one step's latency over the ops that have it.
func steps(recs []opRecord, step int) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.steps[step] > 0 {
			out = append(out, rec.steps[step])
		}
	}
	return out
}

// subWindows is how many equal parts the measured window is cut into.
// Each end-to-end rate and latency is the median over the parts, so a
// burst of noise from the shared host spoils one part and not the result.
const subWindows = 5

// windowed returns the unit ops completed per second, and their median
// and 90th-percentile latency, each as the median over the sub-windows.
func windowed(ok []opRecord, p phase) (rate, p50, p90 float64) {
	part := p.seconds / subWindows
	var lat [subWindows][]float64
	for _, rec := range ok {
		k := min(int(float64(rec.end-p.start)/1e9/part), subWindows-1)
		lat[k] = append(lat[k], float64(rec.end-rec.start)/1e6)
	}
	var rates, p50s, p90s []float64
	for _, l := range lat {
		rates = append(rates, float64(len(l))/part)
		p50s = append(p50s, percentile(l, 50))
		p90s = append(p90s, percentile(l, 90))
	}
	return percentile(rates, 50), percentile(p50s, 50), percentile(p90s, 50)
}

func run(cfg runConfig) (*result, error) {
	fsType, err := checkDataRoot(cfg.fed.dataRoot)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg}
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		r.teardown()
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.teardown()
	r.warm()

	res := &result{Traced: cfg.trace, Metrics: map[string]metric{}}
	res.Env = envStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit:   cmp.Or(os.Getenv("BENCH_COMMIT"), "unknown"), // run.sh sets it
		DataRoot: cfg.fed.dataRoot, FSType: fsType,
		SyncDelayUs: float64(cfg.fed.syncDelay) / 1e3,
		Network:     "loopback TCP in one process, not a WAN; cross-site cost is reported as message counts",
		Federation:  fmt.Sprintf("%d sites × %d nodes, gateway %v", len(cfg.fed.sites), cfg.fed.nodesPerSite, r.fed.gw.addr),
		Workload:    cfg.workload, Seed: cfg.seed, Clients: cfg.clients,
		WarmupS: cfg.warmup.Seconds(), WindowS: cfg.window.Seconds(),
		PollInterval: pollInterval.String(),
	}
	if res.Env.DataRoot == "" {
		res.Env.DataRoot = "(in memory)"
	}
	var all []opRecord
	values := map[string]float64{}
	phases := fmt.Sprintf("measured %.1fs × %d clients", cfg.window.Seconds(), cfg.clients)
	if !cfg.trace {
		p := r.drive(cfg.window, false, true)
		all = p.recs
		ok := okRecs(r.units(p))
		lat := latencies(ok)
		res.Samples = len(lat)
		for i, q := range []float64{90, 95, 99, 99.9, 100} {
			res.TailMs[i] = percentile(lat, q)
		}
		values["ops_per_s"], values["op_p50_ms"], values["op_p90_ms"] = windowed(ok, p)
		values["setup_s"] = percentile(setupS, 50)
	} else {
		counted, single := cfg.window*4/10, cfg.window*3/10
		phases = fmt.Sprintf("counted %.1fs × %d clients, then 1 client %.1fs untraced and %.1fs traced",
			counted.Seconds(), cfg.clients, single.Seconds(), single.Seconds())
		p1 := r.drive(counted, false, true)
		p2 := r.drive(single, true, false)
		r.fed.in.tr.on.Store(true)
		p3 := r.drive(single, true, true)
		r.fed.in.tr.on.Store(false)
		all = append(append(p1.recs, p2.recs...), p3.recs...)
		res.Samples = len(okRecs(r.units(p1)))
		r.countedMetrics(p1, values)
		res.Env.Phases, res.Env.DevSyncMs = phases, r.devSyncMs()
		sum, err := r.tracedMetrics(p2, p3, values, res.Env)
		if err != nil {
			return nil, err
		}
		res.Trace = &sum
		probes, err := runProbes(cfg.probeDur, r.fed.in.captured)
		if err != nil {
			return nil, err
		}
		for name, v := range probes {
			values[name] = v
		}
	}

	violations := r.finalChecks()
	res.Attempted = max(len(all), 1)
	res.Failed = len(all) - len(okRecs(all)) + violations
	res.Correct = res.Failed == 0
	res.Notes = r.chk.notes
	if cfg.trace {
		values["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}

	res.Env.Phases, res.Env.DevSyncMs = phases, r.devSyncMs()
	return res, nil
}

// devSyncMs is the median duration of one modelled flush so far.
func (r *runner) devSyncMs() float64 {
	in := r.fed.in
	in.mu.Lock()
	defer in.mu.Unlock()
	return percentile(ms(in.syncNs), 50)
}

// countedMetrics fills the metrics that are counts: totals over the
// 2-client untraced phase divided by its unit ops, and the client-side
// step latencies of the same phase.
func (r *runner) countedMetrics(p phase, m map[string]float64) {
	units := okRecs(r.units(p))
	ops := float64(len(units))
	d := p.after.c.sub(p.before.c)
	per := func(i int) float64 { return ratio(float64(d[i]), ops) }
	m["httpgw.requests_per_op"] = per(cHTTPRequests)
	m["ops.records_per_op"] = per(cOpsRecords)
	m["core.records_per_op"] = per(cCoreRecords)
	m["store.syncs_per_op"] = per(cDevSyncs)
	m["store.writes_per_op"] = per(cDevWrites)
	m["store.wal_bytes_per_op"] = per(cDevBytes)
	m["store.compactions"] = float64(d[cCompactions])
	m["tcpnet.msgs_per_op"] = per(cMsgs)
	m["tcpnet.cross_site_msgs_per_op"] = per(cCrossSiteMsgs)

	var leases, writerOK []opRecord
	for _, rec := range okRecs(p.recs) {
		if rec.kind == wLeaseCycle {
			leases = append(leases, rec)
		}
		if r.cfg.workload == wMixedRW && rec.client != 0 {
			writerOK = append(writerOK, rec)
		}
	}
	reserves := float64(len(leases))
	a, b := p.after, p.before
	m["core.visits_per_reserve"] = ratio(float64(a.visits-b.visits), reserves)
	m["core.conflicts_per_reserve"] = ratio(float64(a.conflicts-b.conflicts), reserves)
	m["core.surplus_per_reserve"] = ratio(float64(a.surplus-b.surplus), reserves)
	m["tcpnet.batch_ratio"] = ratio(float64(a.tcp.BatchedMessages-b.tcp.BatchedMessages), float64(a.tcp.BatchFrames-b.tcp.BatchFrames))
	m["tcpnet.queue_drops"] = float64(a.tcp.QueueDrops - b.tcp.QueueDrops)
	m["ingest.coalesced_ratio"] = ratio(float64(a.ing.Coalesced-b.ing.Coalesced), float64(a.ing.Enqueued-b.ing.Enqueued))
	m["ingest.batch_raw_mean"] = ratio(float64(a.ing.Applied-b.ing.Applied), float64(a.ing.Batches-b.ing.Batches))
	m["ingest.shed_total"] = float64(a.ing.Shed - b.ing.Shed)
	m["pastry.hops_per_route"] = ratio(float64(a.forwarded-b.forwarded), float64(a.originated-b.originated))
	m["cpu_ms_per_op"] = ratio(float64(a.cpu-b.cpu)/1e6, ops)
	m["runtime.alloc_kb_per_op"] = ratio(float64(a.alloc-b.alloc)/1024, ops)
	m["runtime.gc_pause_ms"] = float64(a.gcPause-b.gcPause) / 1e6

	m["accept_p50_ms"] = percentile(steps(okRecs(p.recs), stepAccept), 50)
	m["reserve_p50_ms"] = percentile(steps(leases, stepReserve), 50)
	m["reserve_p99_ms"] = percentile(steps(leases, stepReserve), 99)
	m["commit_p50_ms"] = percentile(steps(leases, stepCommit), 50)
	m["release_p50_ms"] = percentile(steps(leases, stepRelease), 50)
	m["bg_writes_per_s"] = float64(len(writerOK)) / p.seconds
	m["op_p99_ms"] = percentile(latencies(units), 99)

	m["store.dev_sync_ms"] = r.devSyncMs()
	in := r.fed.in
	in.mu.Lock()
	m["store.compact_stall_ms"] = float64(in.compactMax) / 1e6
	in.mu.Unlock()
}

// tracedMetrics fills the metrics that are times: they come from the
// spans and time sums of the traced 1-client phase p3, and the tracing
// overhead from comparing it with the untraced 1-client phase p2.
func (r *runner) tracedMetrics(p2, p3 phase, m map[string]float64, env envStamp) (traceSummary, error) {
	in := r.fed.in
	units := r.units(p3)
	ops := float64(len(okRecs(units)))
	d := p3.after.c.sub(p3.before.c)
	m["ops.record_wait_ms_per_op"] = ratio(float64(d[cOpsRecordNs])/1e6, ops)
	m["core.record_wait_ms_per_op"] = ratio(float64(d[cCoreRecordNs])/1e6, ops)
	m["tcpnet.bytes_per_op"] = ratio(float64(d[cMsgBytes]), ops)
	if d[cUnmatched] > 0 {
		r.chk.note("%d deliveries had no matching send; tcpnet.deliver_ms is unreliable", d[cUnmatched])
	}

	in.mu.Lock()
	lag, deliver := ms(in.lagNs), ms(in.deliverNs)
	in.mu.Unlock()
	m["core.loop_lag_ms"] = percentile(lag, 50)
	m["core.loop_lag_p99_ms"] = percentile(lag, 99)
	m["tcpnet.deliver_ms"] = percentile(deliver, 50)
	m["tcpnet.deliver_p99_ms"] = percentile(deliver, 99)

	// Client 0 ran alone (beside mixed_rw's writer), so its ops do not
	// overlap and every span inside one belongs to it.
	var windows []window
	for _, rec := range units {
		windows = append(windows, window{rec.start, rec.end})
	}
	spans := fold(in.tr.take(), windows)
	sum := summarize(spans, windows)
	m["httpgw.handler_ms"] = sum.HandlerP50Ms["all"]
	m["core.turn_ms_per_op"] = sum.SelfMsPerOp["node.turn[core]"]
	m["pastry.turn_ms_per_op"] = sum.SelfMsPerOp["node.turn[pastry]"]
	m["scribe.turn_ms_per_op"] = sum.SelfMsPerOp["node.turn[scribe]"]
	m["trace.attributed_pct"] = sum.AttributedPct
	untraced := percentile(latencies(okRecs(r.units(p2))), 50)
	traced := percentile(latencies(okRecs(units)), 50)
	m["trace.overhead_pct"] = 100 * ratio(traced-untraced, untraced)

	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return sum, err
	}
	path := filepath.Join(r.cfg.outDir, r.cfg.workload+".trace.json")
	return sum, writeTrace(path, env, sum, spans, windows)
}

// finalChecks runs once the clients have stopped: every accepted op must
// reach a terminal state, no node may still be reserved, no store may
// have seen a write error, and GET /attrs must return the last value
// written per key. It returns the number of violations.
func (r *runner) finalChecks() int {
	violations := 0
	fail := func(format string, args ...any) {
		violations++
		r.chk.note(format, args...)
	}
	eng := r.fed.gwSrv.Engine()
	for deadline := time.Now().Add(5 * time.Second); eng.QueueDepth() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			fail("%d accepted ops never reached a terminal state", eng.QueueDepth())
			break
		}
	}
	// Surplus candidates are released without an ack, so give those
	// messages a moment; a lost release would otherwise hold its node for
	// the 5 s ReserveTTL.
	deadline := time.Now().Add(3 * time.Second)
	for {
		var held []string
		for _, n := range r.fed.nodes {
			n := n
			n.node.DoWait(func() {
				if q, _, ok := n.node.Reserved(); ok {
					held = append(held, fmt.Sprintf("%v by %s", n.addr, q))
				}
			})
		}
		if len(held) == 0 {
			break
		}
		if time.Now().After(deadline) {
			fail("nodes still reserved after the run drained: %v", held)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, n := range r.fed.nodes {
		if err := n.log.Err(); err != nil {
			fail("store of %v: %v", n.addr, err)
		}
	}
	if err := r.checkAttrs(); err != nil {
		fail("%v", err)
	}
	return violations
}

func (r *runner) checkAttrs() error {
	if len(r.chk.expected) == 0 {
		return nil
	}
	var got map[string]any
	status, err := r.clients[0].do(http.MethodGet, "/attrs", nil, &got)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /attrs: status %d", status)
	}
	var wrong []string
	for name, byClient := range r.chk.expected {
		v, _ := got[name].(float64)
		match := false
		for _, want := range byClient {
			match = match || v == want
		}
		if !match {
			wrong = append(wrong, fmt.Sprintf("%s=%v, last written %v", name, got[name], byClient))
		}
	}
	if len(wrong) > 0 {
		return fmt.Errorf("GET /attrs: %d keys do not hold their last written value, e.g. %s", len(wrong), wrong[0])
	}
	return nil
}

// resultLine is the one JSON object the benchmark contract reads from the
// last line of standard output.
func resultLine(res *result) (string, error) {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	return string(b), err
}
