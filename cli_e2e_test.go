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
	"regexp"
	"strings"
	"testing"
	"time"
)

// The CLI tests build the real binaries into a temp dir and run them on
// loopback: rbayd daemons, and rbayctl against one daemon's HTTP gateway.

func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	if b, err := exec.Command("go", "build", "-o", out, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, b)
	}
	return out
}

// freePorts reserves n loopback host:ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	ports := make([]string, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().String()
		l.Close()
	}
	return ports
}

// spawn starts a daemon that the test's cleanup kills.
func spawn(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
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

func writeFile(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ctlUntil runs rbayctl until its output contains want, for up to 60 s.
func ctlUntil(t *testing.T, rbayctl, want string, args ...string) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		out, err := exec.Command(rbayctl, args...).CombinedOutput()
		if err == nil && strings.Contains(string(out), want) {
			return string(out)
		}
		if time.Now().After(deadline) {
			t.Fatalf("rbayctl %v never printed %q; last output:\n%s (err=%v)", args, want, out, err)
		}
		time.Sleep(time.Second)
	}
}

const gpuRegistry = `{"trees": [{"name": "GPU", "attr": "GPU", "op": "=", "value": true}]}`

// passwordPolicy hides the node from callers without the password, and
// stores a delivered command's new_price as the node's price attribute.
const passwordPolicy = `
AA = {Password = "pw"}
function onGet(caller, password)
    if password == AA.Password then return NodeId end
    return nil
end
function onDeliver(caller, payload)
    setattr("price", payload.new_price)
end
`

// TestCLIEndToEnd builds the real binaries, brings up a two-node rbayd
// federation on loopback, and drives every rbayctl read and admin command
// through one daemon's gateway, plus rbayaal — the full deployment path a
// site admin would walk.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	dir := t.TempDir()
	rbayd, rbayctl, rbayaal := buildCmd(t, dir, "rbayd"), buildCmd(t, dir, "rbayctl"), buildCmd(t, dir, "rbayaal")
	ports := freePorts(t, 3)
	gwURL := "http://" + ports[2]
	peers := writeFile(t, filepath.Join(dir, "peers.txt"), fmt.Sprintf("lab/n1 %s\nlab/n2 %s\n", ports[0], ports[1]))
	registry := writeFile(t, filepath.Join(dir, "registry.json"), gpuRegistry)
	policy := writeFile(t, filepath.Join(dir, "password.aal"), passwordPolicy)

	// Policy workbench first (no network needed).
	out, err := exec.Command(rbayaal, "-invoke", "onGet", "-args", "joe,pw", policy).CombinedOutput()
	if err != nil {
		t.Fatalf("rbayaal: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `-> "lab/n1"`) {
		t.Fatalf("rbayaal output: %s", out)
	}

	spawn(t, rbayd, "-addr", "lab/n1", "-listen", ports[0], "-peers", peers, "-registry", registry,
		"-bootstrap", "-attr", "GPU=true")
	waitListening(t, ports[0])
	spawn(t, rbayd, "-addr", "lab/n2", "-listen", ports[1], "-peers", peers, "-registry", registry,
		"-seed", "lab/n1", "-attr", "GPU=true", "-policy", "GPU="+policy, "-http", ports[2])
	waitListening(t, ports[1])
	waitListening(t, ports[2])
	ctl := func(args ...string) []string { return append([]string{"-gw", gwURL, "-timeout", "20s"}, args...) }

	// The trees need a couple of aggregation intervals; retry the query
	// until both GPUs show up (n2's requires the password).
	const sql = "SELECT 2 FROM lab WHERE GPU = true;"
	ctlUntil(t, rbayctl, "2 candidate(s)", ctl("-password", "pw", "query", sql)...)
	ctlUntil(t, rbayctl, `tree "GPU" has 2 member(s) in site lab`, ctl("treesize", "GPU")...)

	// A command multicast down the tree runs n2's onDeliver handler.
	ctlUntil(t, rbayctl, "command delivered", ctl("deliver", "GPU", `{"new_price": 2.5}`)...)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var attrs map[string]any
		resp, err := http.Get(gwURL + "/attrs")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&attrs)
			resp.Body.Close()
		}
		if err == nil && attrs["price"] == 2.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered price never reached n2: %v (err=%v)", attrs, err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Views live on the gateway's daemon. A view read is a read: the next
	// one finds both nodes again.
	ctlUntil(t, rbayctl, "view registered: "+sql, ctl("view", "register", sql)...)
	ctlUntil(t, rbayctl, "entries=2", ctl("view", "list")...)
	ctlUntil(t, rbayctl, "2 candidate(s)", ctl("-password", "pw", "view", "read", sql)...)
	ctlUntil(t, rbayctl, "2 candidate(s)", ctl("-password", "pw", "view", "read", sql)...)
	ctlUntil(t, rbayctl, "view dropped: "+sql, ctl("view", "drop", sql)...)
	ctlUntil(t, rbayctl, "no views registered", ctl("view", "list")...)
	if out, err := exec.Command(rbayctl, ctl("view", "read", sql)...).CombinedOutput(); err == nil {
		t.Fatalf("view read after drop succeeded:\n%s", out)
	}
	// The gateway answers that failed read 404; rbayctl still prints the
	// query's outline and its error.
	out, err = exec.Command(rbayctl, ctl("-explain", "-view", "only", "query", sql)...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "err=core: no registered view") ||
		!regexp.MustCompile(`query \S+#\S+: core: no registered view`).Match(out) {
		t.Fatalf("failed query: err=%v, want its outline and error:\n%s", err, out)
	}
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
	rbayd, rbayctl := buildCmd(t, dir, "rbayd"), buildCmd(t, dir, "rbayctl")
	ports := freePorts(t, 3)
	gwAddr := ports[2]
	peers := writeFile(t, filepath.Join(dir, "peers.txt"), fmt.Sprintf("lab/n1 %s\nlab/n2 %s\n", ports[0], ports[1]))
	registry := writeFile(t, filepath.Join(dir, "registry.json"), gpuRegistry)
	policy := writeFile(t, filepath.Join(dir, "password.aal"), passwordPolicy)

	gwCtl := func(args ...string) (string, error) {
		all := append([]string{"-gw", "http://" + gwAddr, "-timeout", "60s", "-password", "pw"}, args...)
		out, err := exec.Command(rbayctl, all...).CombinedOutput()
		return string(out), err
	}
	queryN := func(want int) {
		t.Helper()
		ctlUntil(t, rbayctl, fmt.Sprintf("%d candidate(s)", want), "-gw", "http://"+gwAddr, "-timeout", "20s",
			"-password", "pw", "query", "SELECT * FROM lab WHERE GPU = true;")
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
	spawn(t, rbayd, "-addr", "lab/n1", "-listen", ports[0], "-peers", peers, "-registry", registry,
		"-bootstrap", "-data-dir", n1Dir, "-attr", "GPU=true")
	waitListening(t, ports[0])
	n2Args := []string{"-addr", "lab/n2", "-listen", ports[1], "-peers", peers, "-registry", registry,
		"-seed", "lab/n1", "-data-dir", n2Dir, "-fsync", "always", "-http", gwAddr}
	n2 := spawn(t, rbayd, append(n2Args, "-attr", "GPU=true", "-policy", "GPU="+policy)...)
	waitListening(t, ports[1])
	queryN(2)

	// Async gateway round under an idempotency key: reserve one GPU and
	// commit it, both driven to terminal state through GET /ops polling.
	// The query above released what it found, so both GPUs are free.
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
	spawn(t, rbayd, n2Args...)
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
	// The restored ops read back one by one and in the list.
	if out, err := gwCtl("op", reserveID); err != nil || !strings.Contains(out, "reserve done") {
		t.Fatalf("rbayctl op %s: %v\n%s", reserveID, err, out)
	}
	if out, err := gwCtl("ops", "done"); err != nil || !strings.Contains(out, reserveID) {
		t.Fatalf("rbayctl ops done: %v\n%s", err, out)
	}

	// Exactly one reservation: one of the two GPUs stays committed, so a
	// fresh query finds exactly one free candidate after refederation.
	queryN(1)
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
// daemons take the federation directory from the peers file, so FROM *
// spans both sites, rbayctl names either site through east's gateway, and
// a cross-site reserve → commit → release through that gateway reaches
// done. A query is a read: right after one, another finds the same node
// with no conflict.
func TestCLICrossSite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	dir := t.TempDir()
	rbayd, rbayctl := buildCmd(t, dir, "rbayd"), buildCmd(t, dir, "rbayctl")
	ports := freePorts(t, 3)
	gwURL := "http://" + ports[2]
	peers := writeFile(t, filepath.Join(dir, "peers.txt"), fmt.Sprintf("east/n1 %s\nwest/n1 %s router\n", ports[0], ports[1]))
	registry := writeFile(t, filepath.Join(dir, "registry.json"), gpuRegistry)
	spawn(t, rbayd, "-addr", "east/n1", "-listen", ports[0], "-peers", peers, "-registry", registry,
		"-bootstrap", "-attr", "GPU=true", "-http", ports[2])
	waitListening(t, ports[0])
	spawn(t, rbayd, "-addr", "west/n1", "-listen", ports[1], "-peers", peers, "-registry", registry,
		"-seed", "east/n1", "-attr", "GPU=true")
	waitListening(t, ports[1])
	waitListening(t, ports[2])

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

	// The client names either site; once it exits, the node it found is
	// free for the next query at once.
	ctl := func(args ...string) []string { return append([]string{"-gw", gwURL, "-timeout", "20s"}, args...) }
	ctlUntil(t, rbayctl, "site=east", ctl("query", "SELECT 1 FROM east WHERE GPU = true;")...)
	ctlUntil(t, rbayctl, "site=west", ctl("query", "SELECT 1 FROM west WHERE GPU = true;")...)
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
	out := gwCtl("reserve", "SELECT 1 FROM west WHERE GPU = true;")
	if !strings.Contains(out, "site=west") {
		t.Fatalf("cross-site reserve held nothing in west:\n%s", out)
	}
	reserveID := strings.TrimSuffix(strings.Fields(out)[1], ":") // "op <id>: reserve done ..."
	gwCtl("commit", reserveID)
	gwCtl("release", reserveID)
}
