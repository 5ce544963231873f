// Command rbayctl is the customer-side client for a real rbayd
// federation: it attaches an ephemeral node, issues one SQL-like query
// (or admin operation), prints the result, and leaves.
//
// Usage:
//
//	rbayctl -addr site/ctl0 -peers peers.txt -seed site/host \
//	        [-registry registry.json] [-password secret] \
//	        query 'SELECT 3 FROM * WHERE GPU = true;'
//
//	rbayctl ... treesize GPU
//	rbayctl ... deliver GPU '{"new_price": 2.5}'
//	rbayctl ... view register 'SELECT 3 FROM * WHERE GPU = true;'
//	rbayctl ... view list | drop <sql> | read <sql>
//
// View operations run on the seed daemon (views live on long-running
// nodes, not ephemeral clients); see docs/VIEWS.md.
//
// With -gw the client skips the overlay entirely and drives an rbayd
// HTTP gateway's async operations API (reserve/commit/release/op/ops);
// see gw.go and docs/GATEWAY.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rbay"
	"rbay/internal/fedcfg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rbayctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rbayctl", flag.ContinueOnError)
	addrFlag := fs.String("addr", "", "this client's federation address, site/host (required)")
	listen := fs.String("listen", ":0", "TCP listen address")
	peersPath := fs.String("peers", "peers.txt", "peer table file")
	registryPath := fs.String("registry", "", "tree registry JSON (empty: EC2 evaluation catalog)")
	seedFlag := fs.String("seed", "", "peer to join through, site/host (required)")
	password := fs.String("password", "", "payload presented to onGet handlers")
	explain := fs.Bool("explain", false, "print the query's trace outline (plan, probes, anycasts, backoff)")
	viewMode := fs.String("view", "", "view mode for query: auto (default), only, skip")
	timeout := fs.Duration("timeout", 30*time.Second, "operation timeout")
	gwURL := fs.String("gw", "", "HTTP gateway base URL (e.g. http://host:8080); switches to async gateway mode")
	idemKey := fs.String("idem", "", "idempotency key for gateway submissions (retries dedupe under it)")
	tenant := fs.String("tenant", "", "tenant name sent as X-RBAY-Tenant (gateway mode)")
	waitFlag := fs.Bool("wait", false, "gateway mode: poll the submitted op until it reaches a terminal state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if *gwURL != "" {
		return runGateway(*gwURL, *tenant, *idemKey, *password, *waitFlag, *timeout, rest)
	}
	if *addrFlag == "" || *seedFlag == "" || len(rest) < 1 {
		return fmt.Errorf("usage: rbayctl -addr site/host -seed site/host [flags] query|treesize|deliver ...")
	}
	addr, err := fedcfg.ParseAddr(*addrFlag)
	if err != nil {
		return err
	}
	seed, err := fedcfg.ParseAddr(*seedFlag)
	if err != nil {
		return err
	}
	peers, directory, err := fedcfg.LoadPeers(*peersPath)
	if err != nil {
		return err
	}
	reg := rbay.EC2Registry()
	if *registryPath != "" {
		reg, err = fedcfg.LoadRegistry(*registryPath)
		if err != nil {
			return err
		}
	}

	node, err := rbay.NewTCPNode(addr, rbay.TCPOptions{
		Listen:   *listen,
		Registry: reg,
		Resolve: func(a rbay.Addr) (string, error) {
			hp, ok := peers[a]
			if !ok {
				return "", fmt.Errorf("no peer entry for %v", a)
			}
			return hp, nil
		},
		// An ephemeral client attaches for one operation and leaves:
		// skip heartbeats and background reconnects so a detaching
		// daemon is not misreported as a failed peer.
		Transport: rbay.TransportConfig{
			HeartbeatInterval: -1,
			ReconnectAttempts: -1,
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	node.Node.DoWait(func() { node.Node.SetDirectory(directory) })

	joined := make(chan struct{})
	var joinErr error
	node.Node.DoWait(func() {
		joinErr = node.Node.Pastry().JoinGlobal(seed, func() { close(joined) })
	})
	if joinErr != nil {
		return joinErr
	}
	select {
	case <-joined:
	case <-time.After(*timeout):
		return fmt.Errorf("join through %v timed out", seed)
	}

	switch rest[0] {
	case "query":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl ... query 'SELECT ...'")
		}
		mode, err := rbay.ParseViewMode(*viewMode)
		if err != nil {
			return err
		}
		return doQuery(node.Node, rest[1], *password, mode, *explain, *timeout)
	case "view":
		if len(rest) < 2 {
			return fmt.Errorf("usage: rbayctl ... view register|drop|read <sql> | view list")
		}
		op := rest[1]
		arg := ""
		switch op {
		case "list":
			if len(rest) != 2 {
				return fmt.Errorf("usage: rbayctl ... view list")
			}
		case "register", "drop", "read":
			if len(rest) != 3 {
				return fmt.Errorf("usage: rbayctl ... view %s <sql>", op)
			}
			arg = rest[2]
		default:
			return fmt.Errorf("unknown view operation %q", op)
		}
		var payload any
		if *password != "" {
			payload = *password
		}
		return doViewAdmin(node.Node, seed, op, arg, payload, *timeout)
	case "treesize":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl ... treesize <tree-name>")
		}
		return doTreeSize(node.Node, rest[1], *timeout)
	case "deliver":
		if len(rest) != 3 {
			return fmt.Errorf("usage: rbayctl ... deliver <tree-name> <json-payload>")
		}
		var payload any
		if err := json.Unmarshal([]byte(rest[2]), &payload); err != nil {
			payload = rest[2] // plain string payload
		}
		var delErr error
		node.Node.DoWait(func() { delErr = node.Node.DeliverCommand(rest[1], payload) })
		if delErr != nil {
			return delErr
		}
		time.Sleep(2 * time.Second) // let the multicast drain before detaching
		fmt.Println("command delivered")
		return nil
	default:
		return fmt.Errorf("unknown operation %q", rest[0])
	}
}

func doQuery(n *rbay.Node, sql, password string, mode rbay.ViewMode, explain bool, timeout time.Duration) error {
	q, err := rbay.ParseQuery(sql)
	if err != nil {
		return err
	}
	done := make(chan rbay.Result, 1)
	n.Do(func() {
		n.QueryVia(q, "rbayctl", password, mode, func(r rbay.Result) {
			// A query is a read: release what it reserved before exiting.
			n.Release(r.QueryID, r.Candidates)
			done <- r
		})
	})
	select {
	case r := <-done:
		if r.Err != nil {
			if explain && r.Trace != nil {
				fmt.Println(r.Trace.Render())
			}
			return r.Err
		}
		fmt.Printf("query %s: %d candidate(s) in %v (%d attempt(s))\n",
			r.QueryID, len(r.Candidates), r.Elapsed.Round(time.Millisecond), r.Attempts)
		for _, c := range r.Candidates {
			fmt.Printf("  %-28s site=%-12s id=%v\n", c.Addr, c.Site, c.NodeID)
		}
		if r.Shortfall > 0 {
			fmt.Printf("  (%d short of the requested count)\n", r.Shortfall)
		}
		if explain && r.Trace != nil {
			fmt.Println()
			fmt.Println(r.Trace.Render())
		}
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("query timed out")
	}
}

func doViewAdmin(n *rbay.Node, target rbay.Addr, op, arg string, payload any, timeout time.Duration) error {
	done := make(chan rbay.ViewAdminResult, 1)
	n.Do(func() {
		n.ViewAdmin(target, op, arg, payload, func(r rbay.ViewAdminResult) { done <- r })
	})
	select {
	case r := <-done:
		if r.Err != "" {
			return fmt.Errorf("view %s: %s", op, r.Err)
		}
		switch op {
		case "register":
			fmt.Printf("view registered on %v: %s\n", target, r.Key)
		case "drop":
			fmt.Printf("view dropped on %v: %s\n", target, r.Key)
		case "list":
			if len(r.Views) == 0 {
				fmt.Println("no views registered")
				return nil
			}
			for _, v := range r.Views {
				fmt.Printf("%-60s entries=%-4d staleness=%-8v refreshes=%d served=%d fallbacks=%d\n",
					v.Key, v.Entries, v.Staleness.Round(time.Millisecond), v.Refreshes, v.Served, v.Fallbacks)
			}
		case "read":
			fmt.Printf("view read %s: %d candidate(s)\n", r.QueryID, len(r.Candidates))
			for _, c := range r.Candidates {
				fmt.Printf("  %-28s site=%-12s id=%v\n", c.Addr, c.Site, c.NodeID)
			}
			if r.Shortfall > 0 {
				fmt.Printf("  (%d short of the requested count)\n", r.Shortfall)
			}
		}
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("view %s timed out", op)
	}
}

func doTreeSize(n *rbay.Node, tree string, timeout time.Duration) error {
	type sizeResult struct {
		size int64
		err  error
	}
	done := make(chan sizeResult, 1)
	n.Do(func() {
		err := n.TreeSize(tree, func(s int64, err error) { done <- sizeResult{s, err} })
		if err != nil {
			done <- sizeResult{0, err}
		}
	})
	select {
	case r := <-done:
		if r.err != nil {
			return r.err
		}
		fmt.Printf("tree %q has %d member(s) in site %s\n", tree, r.size, n.Site())
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("tree-size probe timed out")
	}
}
