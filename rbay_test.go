package rbay_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rbay"
)

func demoFederation(t *testing.T, seed int64) *rbay.Federation {
	t.Helper()
	reg := rbay.NewRegistry()
	reg.MustDefine(rbay.TreeDef{
		Name: "GPU", Pred: rbay.Pred{Attr: "GPU", Op: rbay.OpEq, Value: true}, Creator: "t",
	})
	reg.MustDefine(rbay.TreeDef{
		Name: "util<50%", Pred: rbay.Pred{Attr: "CPU_utilization", Op: rbay.OpLt, Value: 0.5}, Creator: "t",
	})
	fed, err := rbay.NewSimFederation(reg, rbay.SimOptions{
		Sites:        []string{"virginia", "tokyo"},
		NodesPerSite: 16,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range fed.Sites() {
		for i, n := range fed.Site(site) {
			n.SetAttribute("GPU", i%4 == 0)
			n.SetAttribute("CPU_utilization", float64(i)/16.0)
		}
	}
	fed.Settle()
	return fed
}

func TestPublicAPIQueryLifecycle(t *testing.T) {
	fed := demoFederation(t, 5)
	joe := fed.Site("tokyo")[3]
	res, err := fed.QuerySync(joe, `SELECT 3 FROM * WHERE GPU = true AND CPU_utilization < 50%;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	joe.Commit(res.QueryID, res.Candidates[:1])
	joe.Release(res.QueryID, res.Candidates[1:])
	fed.RunFor(time.Second)
	committed := 0
	for _, n := range fed.Nodes() {
		if _, c, ok := n.Reserved(); ok && c {
			committed++
		}
	}
	if committed != 1 {
		t.Fatalf("committed = %d, want 1", committed)
	}
}

func TestPublicAPIParseErrorsSurface(t *testing.T) {
	fed := demoFederation(t, 6)
	if _, err := fed.QuerySync(fed.Nodes()[0], "SELEKT nonsense"); err == nil {
		t.Fatal("malformed query accepted")
	}
	if _, err := rbay.ParseQuery(""); err == nil {
		t.Fatal("empty query accepted")
	}
}

// Determinism is a load-bearing property of the simulator: the same seed
// must reproduce latencies exactly.
func TestFederationDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		fed := demoFederation(t, 99)
		var out []string
		for i := 0; i < 3; i++ {
			n := fed.Site("virginia")[2+i]
			res, err := fed.QuerySync(n, `SELECT 2 FROM * WHERE GPU = true;`)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%v|%d", res.Elapsed, len(res.Candidates)))
			n.Release(res.QueryID, res.Candidates)
			fed.RunFor(time.Second)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at query %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestEC2RegistryAndSites(t *testing.T) {
	reg := rbay.EC2Registry()
	if len(reg.Defs()) < 30 {
		t.Fatalf("EC2 catalog has %d trees", len(reg.Defs()))
	}
	s := rbay.EC2Sites()
	if len(s) != 8 || s[0] != "virginia" {
		t.Fatalf("sites = %v", s)
	}
	// The slice is a copy: mutating it must not corrupt the catalog.
	s[0] = "mars"
	if rbay.EC2Sites()[0] != "virginia" {
		t.Fatal("EC2Sites leaks internal state")
	}
}

// TestTCPNodePublicAPI deploys a real two-node federation over loopback
// TCP through the public API and runs a query against it.
func TestTCPNodePublicAPI(t *testing.T) {
	table := map[rbay.Addr]string{}
	resolve := func(a rbay.Addr) (string, error) {
		hp, ok := table[a]
		if !ok {
			return "", fmt.Errorf("no peer %v", a)
		}
		return hp, nil
	}
	reg := rbay.NewRegistry()
	reg.MustDefine(rbay.TreeDef{
		Name: "GPU", Pred: rbay.Pred{Attr: "GPU", Op: rbay.OpEq, Value: true}, Creator: "t",
	})

	mk := func(host string) *rbay.TCPNode {
		t.Helper()
		n, err := rbay.NewTCPNode(rbay.Addr{Site: "lab", Host: host}, rbay.TCPOptions{
			Listen:   "127.0.0.1:0",
			Resolve:  resolve,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		table[rbay.Addr{Site: "lab", Host: host}] = n.ListenAddr()
		return n
	}
	first := mk("n1")
	first.Node.DoWait(func() {
		first.Node.Pastry().BootstrapAlone()
		first.Node.SetAttribute("GPU", true)
	})

	second := mk("n2")
	joined := make(chan struct{})
	var joinErr error
	second.Node.DoWait(func() {
		second.Node.SetAttribute("GPU", true)
		joinErr = second.Node.Pastry().JoinGlobal(rbay.Addr{Site: "lab", Host: "n1"}, func() { close(joined) })
	})
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("join timed out")
	}
	second.Node.DoWait(func() {
		_ = second.Node.Pastry().JoinSite(rbay.Addr{Site: "lab", Host: "n1"}, nil)
	})

	// Wait for membership + aggregation (real wall-clock time here).
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		done := make(chan int, 1)
		first.Node.Do(func() {
			err := first.Node.TreeSize("GPU", func(s int64, err error) {
				if err != nil {
					done <- -1
					return
				}
				done <- int(s)
			})
			if err != nil {
				done <- -1
			}
		})
		if got := <-done; got == 2 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	q, err := rbay.ParseQuery(`SELECT * FROM lab WHERE GPU = true;`)
	if err != nil {
		t.Fatal(err)
	}
	// The node has no directory; restrict to its own site explicitly.
	resCh := make(chan rbay.Result, 1)
	second.Node.Do(func() {
		second.Node.QueryAs(q, "tester", nil, func(r rbay.Result) { resCh <- r })
	})
	select {
	case r := <-resCh:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(r.Candidates) != 2 {
			t.Fatalf("candidates over TCP = %d, want 2", len(r.Candidates))
		}
	case <-time.After(20 * time.Second):
		t.Fatal("TCP query timed out")
	}
}

// TestTCPNodeCloseWhileReceiving closes a TCP node from the test's
// goroutine while its event loop is handling a stream of messages — what
// every rbayctl exit and every crash-path Close does. Run under -race: the
// close must not touch loop-owned state unsynchronised, and a second Close
// must report the node closed instead of waiting on a stopped loop.
func TestTCPNodeCloseWhileReceiving(t *testing.T) {
	table := map[rbay.Addr]string{}
	var tableMu sync.Mutex
	resolve := func(a rbay.Addr) (string, error) {
		tableMu.Lock()
		defer tableMu.Unlock()
		hp, ok := table[a]
		if !ok {
			return "", fmt.Errorf("no peer %v", a)
		}
		return hp, nil
	}
	mk := func(host string) *rbay.TCPNode {
		t.Helper()
		addr := rbay.Addr{Site: "lab", Host: host}
		n, err := rbay.NewTCPNode(addr, rbay.TCPOptions{Listen: "127.0.0.1:0", Resolve: resolve})
		if err != nil {
			t.Fatal(err)
		}
		tableMu.Lock()
		table[addr] = n.ListenAddr()
		tableMu.Unlock()
		return n
	}
	target, sender := mk("n1"), mk("n2")
	defer sender.Close()
	target.Node.DoWait(func() { target.Node.Pastry().BootstrapAlone() })
	sender.Node.DoWait(func() { sender.Node.Pastry().BootstrapAlone() })

	// A release for a query nobody holds is the cheapest message that goes
	// straight to a named node and through its whole receive path.
	hold := []rbay.Candidate{{Site: "lab", Addr: target.Node.Addr()}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sender.Node.DoWait(func() { sender.Node.Release("nobody", hold) })
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for target.Node.Metrics().Counter("rbay_release_unknown_total") < 100 {
		if time.Now().After(deadline) {
			t.Fatal("the target never received the release stream")
		}
		time.Sleep(time.Millisecond)
	}

	if err := target.Close(); err != nil {
		t.Errorf("Close under traffic: %v", err)
	}
	closedTwice := make(chan error, 1)
	go func() { closedTwice <- target.Close() }()
	select {
	case err := <-closedTwice:
		if err == nil {
			t.Error("second Close reported success")
		}
	case <-time.After(5 * time.Second):
		t.Error("second Close hung on the closed endpoint")
	}
	close(stop)
	wg.Wait()
}
