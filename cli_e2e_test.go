package rbay_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIEndToEnd builds the real binaries, brings up a two-node rbayd
// federation on loopback, and exercises rbayctl and rbayaal against it —
// the full deployment path a site admin would walk.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = "."
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	rbayd := build("rbayd")
	rbayctl := build("rbayctl")
	rbayaal := build("rbayaal")

	// Reserve three loopback ports.
	ports := make([]string, 3)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().String()
		l.Close()
	}
	peers := filepath.Join(dir, "peers.txt")
	peersContent := fmt.Sprintf("lab/n1 %s\nlab/n2 %s\nlab/ctl %s\n", ports[0], ports[1], ports[2])
	if err := os.WriteFile(peers, []byte(peersContent), 0o644); err != nil {
		t.Fatal(err)
	}
	registry := filepath.Join(dir, "registry.json")
	regContent := `{"trees": [{"name": "GPU", "attr": "GPU", "op": "=", "value": true}]}`
	if err := os.WriteFile(registry, []byte(regContent), 0o644); err != nil {
		t.Fatal(err)
	}
	policy := filepath.Join(dir, "password.aal")
	policyContent := `
AA = {Password = "pw"}
function onGet(caller, password)
    if password == AA.Password then return NodeId end
    return nil
end
`
	if err := os.WriteFile(policy, []byte(policyContent), 0o644); err != nil {
		t.Fatal(err)
	}

	// Policy workbench first (no network needed).
	out, err := exec.Command(rbayaal, "-invoke", "onGet", "-args", "joe,pw", policy).CombinedOutput()
	if err != nil {
		t.Fatalf("rbayaal: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `-> "lab/n1"`) {
		t.Fatalf("rbayaal output: %s", out)
	}

	// Daemons.
	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(rbayd, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
		return cmd
	}
	spawn("-addr", "lab/n1", "-listen", ports[0], "-peers", peers, "-registry", registry,
		"-bootstrap", "-attr", "GPU=true")
	waitListening(t, ports[0])
	spawn("-addr", "lab/n2", "-listen", ports[1], "-peers", peers, "-registry", registry,
		"-seed", "lab/n1", "-attr", "GPU=true", "-policy", "GPU="+policy)
	waitListening(t, ports[1])

	// The trees need a couple of aggregation intervals; retry the query
	// until both GPUs show up (n2's requires the password).
	deadline := time.Now().Add(60 * time.Second)
	var lastOut []byte
	for time.Now().Before(deadline) {
		cmd := exec.Command(rbayctl,
			"-addr", "lab/ctl", "-listen", ports[2], "-peers", peers, "-registry", registry,
			"-seed", "lab/n1", "-password", "pw", "-timeout", "20s",
			"query", "SELECT * FROM lab WHERE GPU = true;")
		lastOut, err = cmd.CombinedOutput()
		if err == nil && strings.Contains(string(lastOut), "2 candidate(s)") {
			return // success
		}
		time.Sleep(2 * time.Second)
	}
	t.Fatalf("rbayctl never saw both GPUs; last output:\n%s (err=%v)", lastOut, err)
}

// TestCLIDurableRestart walks the full crash-recovery path over real TCP:
// a daemon posts its inventory into a -data-dir store, leaves gracefully
// on SIGTERM, and is restarted with no -attr/-policy flags at all — every
// attribute and the password policy must come back from the WAL replay,
// and the revived node must re-federate until queries find it again.
func TestCLIDurableRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = "."
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	rbayd := build("rbayd")
	rbayctl := build("rbayctl")

	ports := make([]string, 3)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().String()
		l.Close()
	}
	peers := filepath.Join(dir, "peers.txt")
	peersContent := fmt.Sprintf("lab/n1 %s\nlab/n2 %s\nlab/ctl %s\n", ports[0], ports[1], ports[2])
	if err := os.WriteFile(peers, []byte(peersContent), 0o644); err != nil {
		t.Fatal(err)
	}
	registry := filepath.Join(dir, "registry.json")
	regContent := `{"trees": [{"name": "GPU", "attr": "GPU", "op": "=", "value": true}]}`
	if err := os.WriteFile(registry, []byte(regContent), 0o644); err != nil {
		t.Fatal(err)
	}
	policy := filepath.Join(dir, "password.aal")
	policyContent := `
AA = {Password = "pw"}
function onGet(caller, password)
    if password == AA.Password then return NodeId end
    return nil
end
`
	if err := os.WriteFile(policy, []byte(policyContent), 0o644); err != nil {
		t.Fatal(err)
	}

	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(rbayd, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
		return cmd
	}
	queryN := func(what string, want int) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		wanted := fmt.Sprintf("%d candidate(s)", want)
		var lastOut []byte
		var err error
		for time.Now().Before(deadline) {
			cmd := exec.Command(rbayctl,
				"-addr", "lab/ctl", "-listen", ports[2], "-peers", peers, "-registry", registry,
				"-seed", "lab/n1", "-password", "pw", "-timeout", "20s",
				"query", "SELECT * FROM lab WHERE GPU = true;")
			lastOut, err = cmd.CombinedOutput()
			if err == nil && strings.Contains(string(lastOut), wanted) {
				return
			}
			time.Sleep(2 * time.Second)
		}
		t.Fatalf("%s: rbayctl never saw %d GPU(s); last output:\n%s (err=%v)", what, want, lastOut, err)
	}

	gwAddr := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a := l.Addr().String()
		l.Close()
		return a
	}()
	gwURL := "http://" + gwAddr
	gwCtl := func(args ...string) (string, error) {
		all := append([]string{"-gw", gwURL, "-timeout", "60s", "-password", "pw"}, args...)
		out, err := exec.Command(rbayctl, all...).CombinedOutput()
		return string(out), err
	}
	// "op <id> accepted" / "op <id> already submitted ..." / "op <id>: ..."
	opID := func(out string) string {
		t.Helper()
		fields := strings.Fields(out)
		for i, f := range fields {
			if f == "op" && i+1 < len(fields) {
				return strings.TrimSuffix(fields[i+1], ":")
			}
		}
		t.Fatalf("no op ID in output:\n%s", out)
		return ""
	}

	n1Dir, n2Dir := filepath.Join(dir, "n1-data"), filepath.Join(dir, "n2-data")
	spawn("-addr", "lab/n1", "-listen", ports[0], "-peers", peers, "-registry", registry,
		"-bootstrap", "-data-dir", n1Dir, "-attr", "GPU=true")
	waitListening(t, ports[0])
	n2Args := []string{"-addr", "lab/n2", "-listen", ports[1], "-peers", peers, "-registry", registry,
		"-seed", "lab/n1", "-data-dir", n2Dir, "-fsync", "always", "-http", gwAddr}
	n2 := spawn(append(n2Args, "-attr", "GPU=true", "-policy", "GPU="+policy)...)
	waitListening(t, ports[1])
	queryN("before restart", 2)

	// The probe query above left uncommitted holds on both nodes; wait
	// out the ReserveTTL (5s default) so the gateway reserve below finds
	// free inventory.
	time.Sleep(7 * time.Second)

	// Async gateway round under an idempotency key: reserve one GPU and
	// commit it, both driven to terminal state through GET /ops polling.
	out, err := gwCtl("-idem", "e2e-ticket", "-tenant", "e2e", "-wait",
		"reserve", "SELECT 1 FROM lab WHERE GPU = true;")
	if err != nil {
		t.Fatalf("gateway reserve: %v\n%s", err, out)
	}
	if !strings.Contains(out, "site=lab") {
		t.Fatalf("gateway reserve returned no candidates:\n%s", out)
	}
	reserveID := opID(out)
	out, err = gwCtl("-wait", "commit", reserveID)
	if err != nil {
		t.Fatalf("gateway commit: %v\n%s", err, out)
	}

	// Graceful departure, then revive from disk alone: no -attr, no
	// -policy — if the WAL didn't capture the inventory, the query below
	// can never find the surviving candidate again.
	if err := n2.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- n2.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("n2 graceful shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("n2 did not exit on SIGINT")
	}
	spawn(n2Args...)
	waitListening(t, ports[1])
	waitListening(t, gwAddr)

	// Resubmitting the reserve under the same idempotency key must hit
	// the WAL-restored op record — same op ID, no second reservation.
	out, err = gwCtl("-idem", "e2e-ticket", "-tenant", "e2e",
		"reserve", "SELECT 1 FROM lab WHERE GPU = true;")
	if err != nil {
		t.Fatalf("gateway reserve replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "already submitted") {
		t.Fatalf("replayed key not deduped after restart:\n%s", out)
	}
	if got := opID(out); got != reserveID {
		t.Fatalf("replayed key mapped to op %s, want %s", got, reserveID)
	}

	// Exactly one reservation: one of the two GPUs stays committed, so a
	// fresh query finds exactly one free candidate after refederation.
	queryN("after restart", 1)
}

func waitListening(t *testing.T, hostport string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", hostport, time.Second)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", hostport)
}

// TestCLICrossSite runs two stock rbayd processes in two sites. The
// daemons and the client take the federation directory from the peers
// file, so FROM * spans both sites, a client names a remote site, and a
// cross-site reserve → commit → release through one gateway reaches done.
// A query is a read: right after one, another finds the same node with no
// conflict.
func TestCLICrossSite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	rbayd := build("rbayd")
	rbayctl := build("rbayctl")

	ports := make([]string, 4)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().String()
		l.Close()
	}
	gwURL := "http://" + ports[3]
	peers := filepath.Join(dir, "peers.txt")
	peersContent := fmt.Sprintf("east/n1 %s\nwest/n1 %s router\neast/ctl %s\n", ports[0], ports[1], ports[2])
	if err := os.WriteFile(peers, []byte(peersContent), 0o644); err != nil {
		t.Fatal(err)
	}
	registry := filepath.Join(dir, "registry.json")
	regContent := `{"trees": [{"name": "GPU", "attr": "GPU", "op": "=", "value": true}]}`
	if err := os.WriteFile(registry, []byte(regContent), 0o644); err != nil {
		t.Fatal(err)
	}
	spawn := func(args ...string) {
		cmd := exec.Command(rbayd, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
	}
	spawn("-addr", "east/n1", "-listen", ports[0], "-peers", peers, "-registry", registry,
		"-bootstrap", "-attr", "GPU=true", "-http", ports[3])
	waitListening(t, ports[0])
	spawn("-addr", "west/n1", "-listen", ports[1], "-peers", peers, "-registry", registry,
		"-seed", "east/n1", "-attr", "GPU=true")
	waitListening(t, ports[1])
	waitListening(t, ports[3])

	type found struct {
		Candidates []struct {
			Site string `json:"site"`
		} `json:"candidates"`
		Attempts  int `json:"attempts"`
		Conflicts int `json:"conflicts"`
	}
	gwQuery := func(sql string) (found, error) {
		var res found
		resp, err := http.Get(gwURL + "/query?q=" + url.QueryEscape(sql))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
		}
		return res, err
	}
	// The gateway's FROM * must reach both sites' trees.
	deadline := time.Now().Add(60 * time.Second)
	for {
		res, err := gwQuery("SELECT 2 FROM * WHERE GPU = true;")
		if err == nil && len(res.Candidates) == 2 && res.Candidates[0].Site != res.Candidates[1].Site {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("FROM * never spanned both sites: %+v (err=%v)", res, err)
		}
		time.Sleep(time.Second)
	}

	// The client names the remote site; once it exits, the node it found
	// is free for the next query at once.
	out, err := exec.Command(rbayctl,
		"-addr", "east/ctl", "-listen", ports[2], "-peers", peers, "-registry", registry,
		"-seed", "east/n1", "-timeout", "20s",
		"query", "SELECT 1 FROM west WHERE GPU = true;").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "site=west") {
		t.Fatalf("rbayctl query FROM west: %v\n%s", err, out)
	}
	if res, err := gwQuery("SELECT 1 FROM west WHERE GPU = true;"); err != nil ||
		len(res.Candidates) != 1 || res.Conflicts != 0 || res.Attempts != 1 {
		t.Fatalf("query right after rbayctl's = %+v (err=%v), want west/n1 with 0 conflicts in 1 attempt", res, err)
	}

	gwCtl := func(args ...string) string {
		t.Helper()
		all := append([]string{"-gw", gwURL, "-timeout", "60s", "-wait"}, args...)
		out, err := exec.Command(rbayctl, all...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), " done") {
			t.Fatalf("rbayctl -gw %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	out = []byte(gwCtl("reserve", "SELECT 1 FROM west WHERE GPU = true;"))
	if !strings.Contains(string(out), "site=west") {
		t.Fatalf("cross-site reserve held nothing in west:\n%s", out)
	}
	reserveID := strings.TrimSuffix(strings.Fields(string(out))[1], ":") // "op <id>: reserve done ..."
	gwCtl("commit", reserveID)
	gwCtl("release", reserveID)
}
