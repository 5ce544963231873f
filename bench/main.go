// Command bench is the repository's end-to-end and per-layer benchmark: a
// 2-site × 8-node RBAY federation in one process, driven only through the
// HTTP gateway by closed-loop clients. See README.md in this directory.
//
//	bash bench/run.sh                                  every workload, measured and traced
//	bash bench/run.sh -workload lease_cycle -trace 0   one measured run; last line is the result JSON
//	bash bench/run.sh -repeat 10 -trace 0              run-to-run spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; BENCHMARK.json repeats
// these tables and smoke_test.go fails if the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with tracing off, 2 clients, on every workload; the
// rate and the latencies are medians over five sub-windows (run.go).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.10},
	{"op_p50_ms", "ms", "lower", 0.10},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by a -trace 1 run. A metric that does not apply to
// a workload reads 0 there.
var perLayer = []metricDef{
	// Client-side steps of the unit op (2 clients, tracing off).
	{"fail_ratio", "ratio", "lower", 0},
	{"accept_p50_ms", "ms", "lower", 0},
	{"reserve_p50_ms", "ms", "lower", 0},
	{"reserve_p99_ms", "ms", "lower", 0},
	{"commit_p50_ms", "ms", "lower", 0},
	{"release_p50_ms", "ms", "lower", 0},
	{"bg_writes_per_s", "1/s", "higher", 0},
	{"op_p99_ms", "ms", "lower", 0},
	{"cpu_ms_per_op", "ms", "lower", 0},
	// Counts (2 clients, tracing off).
	{"httpgw.requests_per_op", "count", "lower", 0},
	{"ops.records_per_op", "count", "lower", 0},
	{"core.records_per_op", "count", "lower", 0},
	{"core.visits_per_reserve", "count", "lower", 0},
	{"core.conflicts_per_reserve", "count", "lower", 0},
	{"core.surplus_per_reserve", "count", "lower", 0},
	{"store.syncs_per_op", "count", "lower", 0},
	{"store.writes_per_op", "count", "lower", 0},
	{"store.wal_bytes_per_op", "bytes", "lower", 0},
	{"store.dev_sync_ms", "ms", "lower", 0},
	{"store.compactions", "count", "lower", 0},
	{"store.compact_stall_ms", "ms", "lower", 0},
	{"tcpnet.msgs_per_op", "count", "lower", 0},
	{"tcpnet.cross_site_msgs_per_op", "count", "lower", 0},
	{"tcpnet.batch_ratio", "ratio", "higher", 0},
	{"tcpnet.queue_drops", "count", "lower", 0},
	{"ingest.coalesced_ratio", "ratio", "higher", 0},
	{"ingest.batch_raw_mean", "count", "higher", 0},
	{"ingest.shed_total", "count", "lower", 0},
	{"pastry.hops_per_route", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "KiB", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	// Times (1 client, tracing on).
	{"httpgw.handler_ms", "ms", "lower", 0},
	{"ops.record_wait_ms_per_op", "ms", "lower", 0},
	{"core.record_wait_ms_per_op", "ms", "lower", 0},
	{"core.loop_lag_ms", "ms", "lower", 0},
	{"core.loop_lag_p99_ms", "ms", "lower", 0},
	{"core.turn_ms_per_op", "ms", "lower", 0},
	{"pastry.turn_ms_per_op", "ms", "lower", 0},
	{"scribe.turn_ms_per_op", "ms", "lower", 0},
	{"tcpnet.bytes_per_op", "bytes", "lower", 0},
	{"tcpnet.deliver_ms", "ms", "lower", 0},
	{"tcpnet.deliver_p99_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.attributed_pct", "%", "higher", 0},
	// Isolated probes.
	{"httpgw.serve_us", "us", "lower", 0},
	{"httpgw.serve_post_us", "us", "lower", 0},
	{"ops.submit_us", "us", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.append_batch_us", "us", "lower", 0},
	{"tcpnet.rtt_ms", "ms", "lower", 0},
	{"wire.encode_ns_per_msg", "ns", "lower", 0},
	{"wire.decode_ns_per_msg", "ns", "lower", 0},
	{"wire.bytes_per_msg", "bytes", "lower", 0},
	{"ingest.enqueue_ack_us", "us", "lower", 0},
	{"attr.apply_batch_us", "us", "lower", 0},
	{"aal.onget_us", "us", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	repeat   int
	dataRoot string
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "lease_cycle, tree_read, attr_churn, mixed_rw, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; both")
	flag.IntVar(&o.repeat, "repeat", 0, "run the selected set N times on seeds seed..seed+N-1 and print each metric's spread")
	flag.StringVar(&o.dataRoot, "data-root", "", "directory for real WAL files (default: in-memory disks; see README)")
	flag.StringVar(&o.outDir, "out", defaultOutDir(), "directory for trace and report files")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	names := workloadNames
	if o.workload != "all" {
		if !slices.Contains(workloadNames, o.workload) {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		names = []string{o.workload}
	}
	var modes []bool
	switch o.trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	one := func(w string, traced bool, seed int64) (*result, error) {
		cfg := defaultConfig(w, seed, time.Duration(o.seconds)*time.Second, traced)
		cfg.fed.dataRoot, cfg.outDir = o.dataRoot, o.outDir
		return run(cfg)
	}

	if o.repeat > 0 {
		return repeatRuns(names, modes, o.seed, o.repeat, one)
	}
	var results []*result
	incorrect := 0
	for _, w := range names {
		for _, traced := range modes {
			res, err := one(w, traced, o.seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			printResult(res)
			results = append(results, res)
			if !res.Correct {
				incorrect++
			}
		}
	}
	if err := writeReport(o.outDir, results); err != nil {
		return err
	}
	// A single run is what the benchmark contract invokes: its last line
	// of standard output is the result object.
	if len(results) == 1 {
		line, err := resultLine(results[0])
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d of %d runs failed a correctness check", incorrect, len(results))
	}
	return nil
}

// defaultOutDir is bench/out seen from the repository root, where run.sh
// starts the program, and out seen from this directory (go run -C bench).
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

func defsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printResult(res *result) {
	env, _ := json.Marshal(res.Env)
	fmt.Printf("== %s (trace %v)\nenv %s\n", res.Env.Workload, res.Traced, env)
	for _, d := range defsOf(res.Traced) {
		fmt.Printf("%-32s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("unit ops: %d attempted, %d failed, %d latency samples\n", res.Attempted, res.Failed, res.Samples)
	if !res.Traced {
		fmt.Printf("unit-op latency ms: p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n",
			res.TailMs[0], res.TailMs[1], res.TailMs[2], res.TailMs[3], res.TailMs[4])
	}
	if res.Trace != nil {
		fmt.Println("traced self time per unit op (ms), over", res.Trace.Ops, "ops:")
		keys := make([]string, 0, len(res.Trace.SelfMsPerOp))
		for k := range res.Trace.SelfMsPerOp {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-30s %10.4f\n", k, res.Trace.SelfMsPerOp[k])
		}
	}
	for _, n := range res.Notes {
		fmt.Println("VIOLATION:", n)
	}
}

func writeReport(outDir string, results []*result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "report.json"), append(b, '\n'), 0o644)
}

// repeatRuns is the repeatability mode: per metric, the median, quartiles
// and interquartile spread over n runs on n seeds, flagging every
// end-to-end metric whose spread exceeds its bound or a third of it (the
// margin the benchmark is built to keep).
func repeatRuns(names []string, modes []bool, seed int64, n int, one func(string, bool, int64) (*result, error)) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	flagged := 0
	for _, w := range names {
		for _, traced := range modes {
			values := map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := one(w, traced, seed+int64(i))
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed+int64(i), err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d failed a correctness check: %v", w, seed+int64(i), res.Notes)
				}
				for name, m := range res.Metrics {
					values[name] = append(values[name], m.Value)
				}
			}
			fmt.Printf("== %s (trace %v), %d runs, seeds %d..%d\n", w, traced, n, seed, seed+int64(n)-1)
			fmt.Printf("%-32s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
			for _, d := range defsOf(traced) {
				q1, q2, q3 := quartiles(values[d.Name])
				sp := spread(values[d.Name])
				note := ""
				if d.Bound > 0 && d.Name != "setup_s" {
					switch {
					case sp > d.Bound:
						note = "  EXCEEDS BOUND"
						flagged++
					case sp > d.Bound/3:
						note = "  above bound/3"
					}
				}
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.2f", d.Bound)
				}
				fmt.Printf("%-32s %12.4f %12.4f %12.4f %7.1f%% %6s%s\n", d.Name, q1, q2, q3, 100*sp, bound, note)
			}
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d end-to-end metrics spread beyond their bound: lengthen -seconds rather than widen a bound", flagged)
	}
	return nil
}
