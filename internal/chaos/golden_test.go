package chaos

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rbay/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/replay-* from the current code")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs first at line %d:\ngot  %q\nwant %q", path, i+1, gl, wl)
		}
	}
}

// TestReplayGolden pins the replay of `rbaysim chaos` at its default
// flags (seeds 1 and 7, plain and -durable): the event log, the
// violations and the counter table. The -metrics summary stays out: its
// rbay_wal_flush_seconds is timed by the wall clock.
func TestReplayGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, durable := range []bool{false, true} {
			name := fmt.Sprintf("replay-seed%d", seed)
			if durable {
				name += "-durable"
			}
			scn := RandomScenario(seed, 40, []string{"virginia", "tokyo"})
			scn.Settle = 45 * time.Second
			res, err := Run(scn, Options{
				Sites:         []string{"virginia", "tokyo"},
				NodesPerSite:  20,
				Churn:         true,
				Passwords:     true,
				Durable:       durable,
				Fsync:         store.SyncAlways,
				FsyncInterval: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, line := range res.Log {
				b.WriteString(line + "\n")
			}
			b.WriteString("\n" + res.Counters.Snapshot().CounterTable())
			for _, v := range res.Violations {
				b.WriteString("VIOLATION: " + v.String() + "\n")
			}
			checkGolden(t, name+".txt", []byte(b.String()))
		}
	}
}

// TestGatewayCrashGolden pins one digest per seed of the gateway-crash
// campaign (seeds 1–50): its counts, terminal op log and event log.
func TestGatewayCrashGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= 50; seed++ {
		res, err := RunGatewayCrash(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := sha256.New()
		for _, op := range res.Ops {
			fmt.Fprintf(h, "op %s %s %s %s %s\n", op.ID, op.Kind, op.State, op.QueryID, op.Error)
		}
		for _, line := range res.Log {
			fmt.Fprintln(h, line)
		}
		for _, v := range res.Violations {
			fmt.Fprintln(h, v.String())
		}
		fmt.Fprintf(&b, "seed=%d submitted=%d requeued=%d committed=%d violations=%d sha256=%x\n",
			seed, res.Submitted, res.Requeued, res.Committed, len(res.Violations), h.Sum(nil))
	}
	checkGolden(t, "replay-gateway-crash.txt", []byte(b.String()))
}
