// Command rbayd runs one RBAY node over real TCP — the per-server agent a
// site admin deploys.
//
// Usage:
//
//	rbayd -addr site/host -listen :7946 -peers peers.txt -registry registry.json
//	      [-bootstrap | -seed site/host] [-http :8080] [-debug-addr localhost:6060]
//	      [-data-dir /var/lib/rbayd] [-fsync always|interval|never]
//	      [-attr name=value]... [-policy attr=script.aal]...
//
// peers.txt maps node addresses to TCP endpoints ("virginia/n1 10.0.0.5:7946",
// a trailing "router" marks a site's boundary router) and is the
// federation directory: its sites are the ones FROM * names;
// registry.json declares the federation's aggregation trees. The first
// node of a federation starts with -bootstrap; later nodes join through
// any running peer with -seed.
//
// With -data-dir, nothing the node acknowledges precedes its fsync, and a
// failed write or fsync stops the daemon with a non-zero exit
// (docs/RECOVERY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rbay"
	"rbay/internal/fedcfg"
	"rbay/internal/httpgw"
	"rbay/internal/ops"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rbayd:", err)
		os.Exit(1)
	}
}

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func run(args []string) error {
	fs := flag.NewFlagSet("rbayd", flag.ContinueOnError)
	addrFlag := fs.String("addr", "", "this node's federation address, site/host (required)")
	listen := fs.String("listen", ":7946", "TCP listen address")
	peersPath := fs.String("peers", "peers.txt", "peer table file")
	registryPath := fs.String("registry", "", "tree registry JSON (empty: EC2 evaluation catalog)")
	bootstrap := fs.Bool("bootstrap", false, "start a new federation (first node)")
	httpAddr := fs.String("http", "", "optional HTTP gateway listen address (e.g. :8080)")
	seedFlag := fs.String("seed", "", "existing peer to join through, site/host")
	hbInterval := fs.Duration("hb", 2*time.Second, "transport heartbeat interval (negative disables)")
	hbMisses := fs.Int("hb-misses", 3, "missed heartbeats before a peer conn is declared dead")
	sendQueue := fs.Int("sendq", 1024, "per-endpoint delivery queue bound")
	dataDir := fs.String("data-dir", "", "durable state directory (empty: in-memory only, state dies with the process)")
	fsyncFlag := fs.String("fsync", "always", "who waits for the store's fsync: always (acks do), interval or never (nobody)")
	fsyncInterval := fs.Duration("fsync-interval", 2*time.Second, "fsync period under -fsync interval")
	debugAddr := fs.String("debug-addr", "", "net/http/pprof listen address (e.g. localhost:6060; empty disables)")
	opsWorkers := fs.Int("ops-workers", 8, "gateway async-op worker pool size")
	opsQueue := fs.Int("ops-queue", 256, "gateway async-op queue bound (submissions above it get 429)")
	gwRate := fs.Float64("gw-rate", 0, "per-tenant gateway admission rate, ops/sec (0 disables rate limiting)")
	gwBurst := fs.Int("gw-burst", 0, "per-tenant gateway burst allowance (0: ceil of -gw-rate)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight gateway ops")
	var attrFlags, policyFlags repeated
	fs.Var(&attrFlags, "attr", "attribute to publish, name=value (repeatable)")
	fs.Var(&policyFlags, "policy", "AA policy to attach, attr=script-path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrFlag == "" {
		return fmt.Errorf("-addr is required")
	}
	addr, err := fedcfg.ParseAddr(*addrFlag)
	if err != nil {
		return err
	}
	if !*bootstrap && *seedFlag == "" {
		return fmt.Errorf("either -bootstrap or -seed is required")
	}

	// Debug/profiling server (off by default): net/http/pprof registers
	// its handlers on the default mux at import, so serving nil here
	// exposes /debug/pprof/* — including the WAL writer's CPU and heap
	// profiles (docs/OBSERVABILITY.md) — without touching the gateway mux.
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rbayd: debug server:", err)
			}
		}()
		fmt.Printf("rbayd: pprof debug server on http://%s/debug/pprof/\n", *debugAddr)
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

	// Open the durable store (if any) before the node exists, so every
	// mutation from the first SetAttribute on is recorded.
	var (
		nodeCfg  rbay.NodeConfig
		restored rbay.StoreState
		opsStore ops.Store
	)
	if *dataDir != "" {
		policy, err := rbay.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			return err
		}
		st, state, err := rbay.OpenStore(*dataDir, policy, *fsyncInterval)
		if err != nil {
			return fmt.Errorf("open data dir: %w", err)
		}
		nodeCfg.Store = st
		restored = state
		// The concrete log also persists gateway op records; the ops
		// engine shares the node's WAL so one fsync covers both.
		opsStore, _ = st.(ops.Store)
		if len(state.Attrs) > 0 || state.Reservation != nil {
			fmt.Printf("rbayd: recovered %d attributes from %s\n", len(state.Attrs), *dataDir)
		}
	}

	node, err := rbay.NewTCPNode(addr, rbay.TCPOptions{
		Listen:   *listen,
		Registry: reg,
		Node:     nodeCfg,
		Resolve: func(a rbay.Addr) (string, error) {
			hp, ok := peers[a]
			if !ok {
				return "", fmt.Errorf("no peer entry for %v", a)
			}
			return hp, nil
		},
		Transport: rbay.TransportConfig{
			HeartbeatInterval: *hbInterval,
			HeartbeatMisses:   *hbMisses,
			QueueLen:          *sendQueue,
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	// NewTCPNode already routes peer-down events into Pastry repair; this
	// second observer just makes them visible to the operator.
	node.Transport().OnPeerDown(func(a rbay.Addr) {
		fmt.Printf("rbayd: peer %v is down (heartbeat/reconnect exhausted), repairing\n", a)
	})
	fmt.Printf("rbayd: node %v listening on %s (NodeId %s)\n",
		addr, node.ListenAddr(), node.Node.Pastry().ID().Short())

	// The peers file is the federation directory too: FROM * means every
	// site in it, and a remote site's queries go through its routers.
	node.Node.DoWait(func() { node.Node.SetDirectory(directory) })

	// Replay recovered state before joining: attributes re-posted, policy
	// scripts re-attached, the reservation lease reconciled against its
	// TTL. The overlay learns about it all via Refederate after the join.
	if *dataDir != "" {
		var restoreErr error
		node.Node.DoWait(func() { restoreErr = node.Node.Restore(restored) })
		if restoreErr != nil {
			fmt.Fprintln(os.Stderr, "rbayd: restore: policy re-attach failed:", restoreErr)
		}
	}

	// Publish attributes and attach policies before joining, so the first
	// membership pass sees them. Node methods run on the node's event
	// context (DoWait), never on this goroutine.
	for _, kv := range attrFlags {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("malformed -attr %q (want name=value)", kv)
		}
		node.Node.DoWait(func() { node.Node.SetAttribute(name, fedcfg.ParseAttrValue(val)) })
	}
	for _, kv := range policyFlags {
		name, path, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("malformed -policy %q (want attr=script-path)", kv)
		}
		script, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var attachErr error
		node.Node.DoWait(func() { attachErr = node.Node.AttachPolicy(name, string(script)) })
		if attachErr != nil {
			return attachErr
		}
	}

	if *bootstrap {
		node.Node.DoWait(func() { node.Node.Pastry().BootstrapAlone() })
		fmt.Println("rbayd: bootstrapped a new federation")
	} else {
		seed, err := fedcfg.ParseAddr(*seedFlag)
		if err != nil {
			return err
		}
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
		case <-time.After(15 * time.Second):
			return fmt.Errorf("join through %v timed out", seed)
		}
		if seed.Site == addr.Site {
			node.Node.DoWait(func() { joinErr = node.Node.Pastry().JoinSite(seed, nil) })
			if joinErr != nil {
				return joinErr
			}
		}
		fmt.Printf("rbayd: joined federation through %v\n", seed)
	}
	// Complete re-federation now that the overlay knows us: subscribe every
	// matching tree and push aggregates without waiting an interval.
	node.Node.DoWait(func() { node.Node.Refederate() })

	var (
		gw  *httpgw.Server
		srv *http.Server
	)
	if *httpAddr != "" {
		gw = httpgw.NewGateway(node.Node, httpgw.Options{
			Timeout:  30 * time.Second,
			OpsStore: opsStore,
			OpsConfig: ops.Config{
				Workers:  *opsWorkers,
				QueueMax: *opsQueue,
			},
			RateLimit: httpgw.RateLimit{Rate: *gwRate, Burst: *gwBurst},
		})
		// Replay op records recovered from the WAL: operations the
		// previous process accepted but never finished resume (or roll
		// back) now that the node has rejoined the overlay.
		if requeued := gw.Engine().Restore(restored.Ops); requeued > 0 {
			fmt.Printf("rbayd: requeued %d incomplete gateway ops from %s\n", requeued, *dataDir)
		}
		srv = &http.Server{
			Addr:              *httpAddr,
			Handler:           gw,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "rbayd: http gateway:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("rbayd: HTTP gateway on %s\n", *httpAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var s os.Signal
	select {
	case s = <-sig:
	case <-node.Node.StoreFailed():
		// Fail-stop: the node already refuses to acknowledge anything;
		// exiting lets the supervisor and the peers see it.
		return node.Node.StoreErr()
	}
	// Graceful departure: stop accepting HTTP work, drain in-flight
	// gateway ops (incomplete ones stay in the WAL and resume on the next
	// boot), release releasable reservations, leave every tree so parents
	// prune us immediately, then flush and close the store. The deferred
	// Close after this is a no-op on the already-closed net.
	fmt.Printf("rbayd: %v received, shutting down gracefully\n", s)
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rbayd: http shutdown:", err)
		}
		cancel()
		if left := gw.Engine().Drain(*drainTimeout); left > 0 {
			fmt.Printf("rbayd: %d gateway ops still pending at drain deadline; they will resume on restart\n", left)
		}
	}
	if err := node.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "rbayd: shutdown:", err)
	}
	fmt.Println("rbayd: transport:", node.TransportStats())
	return nil
}
