package main

// The federation under test: sites × nodes in one process, composed from
// the layer APIs the way cmd/rbayd composes them (tcpnet listener →
// core.New → store.Open → httpgw behind a net/http listener), with the
// decorators of layers.go at every boundary.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"rbay/internal/core"
	"rbay/internal/httpgw"
	"rbay/internal/naming"
	"rbay/internal/ops"
	"rbay/internal/scribe"
	"rbay/internal/store"
	"rbay/internal/tcpnet"
	"rbay/internal/transport"
)

// The paper's Fig. 5 policy (examples/policies/password.aal), inlined
// because the benchmark may name no file outside its own directory.
const (
	password       = "3053482032"
	passwordPolicy = `AA = {Password = "` + password + `"}

function onGet(caller, password)
    if (password == AA.Password) then
        return NodeId
    end
    return nil
end
`
)

const (
	membershipInterval = 300 * time.Millisecond
	aggregateInterval  = 200 * time.Millisecond
)

// trees is the registry every node shares: name → membership predicate.
var trees = []naming.TreeDef{
	{Name: "GPU", Pred: naming.Pred{Attr: "GPU", Op: naming.OpEq, Value: true}, Creator: "bench"},
	{Name: "mem_big", Pred: naming.Pred{Attr: "mem_gb", Op: naming.OpGe, Value: 32.0}, Creator: "bench"},
	{Name: "cpu_idle", Pred: naming.Pred{Attr: "cpu_util", Op: naming.OpLt, Value: 50.0}, Creator: "bench"},
}

type fedConfig struct {
	sites        []string
	nodesPerSite int
	gateway      int // host index of the gateway node in sites[0]; not 0, the router
	seed         int64
	syncDelay    time.Duration // modelled device flush per File.Sync / WriteFile
	dataRoot     string        // "" keeps every WAL in a store.MemDir
}

type fedNode struct {
	addr transport.Addr
	net  *tcpnet.Network
	node *core.Node
	log  *store.Log
	// attrs is what the node posted at start, for the membership model.
	attrs map[string]any
}

type federation struct {
	cfg     fedConfig
	in      *instr
	dataDir string // this federation's directory under cfg.dataRoot
	nodes   []*fedNode
	gw      *fedNode
	gwSrv   *httpgw.Server
	srv     *http.Server
	url     string
}

func hostName(i int) string { return fmt.Sprintf("n%04d", i) }

// buildFederation starts every node, joins them into one overlay and
// returns once each site's trees report the expected member counts.
func buildFederation(cfg fedConfig) (*federation, error) {
	core.RegisterWire()
	reg := naming.NewRegistry()
	for _, def := range trees {
		if err := reg.Define(def); err != nil {
			return nil, err
		}
	}
	f := &federation{cfg: cfg, in: newInstr()}
	if cfg.dataRoot != "" {
		dir, err := os.MkdirTemp(cfg.dataRoot, "fed-*")
		if err != nil {
			return nil, err
		}
		f.dataDir = dir
	}

	var tableMu sync.RWMutex
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) {
		tableMu.RLock()
		defer tableMu.RUnlock()
		hp, ok := table[a]
		if !ok {
			return "", fmt.Errorf("bench: no peer entry for %v", a)
		}
		return hp, nil
	}

	dir := core.Directory{Sites: cfg.sites, Routers: map[string][]transport.Addr{}}
	var addrs []transport.Addr
	for _, site := range cfg.sites {
		dir.Routers[site] = []transport.Addr{{Site: site, Host: hostName(0)}}
		for i := 0; i < cfg.nodesPerSite; i++ {
			addrs = append(addrs, transport.Addr{Site: site, Host: hostName(i)})
		}
	}
	f.in.addPairs(addrs)

	// rbayd's transport defaults (-hb 2s, -hb-misses 3, -sendq 1024).
	tcfg := tcpnet.Config{HeartbeatInterval: 2 * time.Second, HeartbeatMisses: 3, QueueLen: 1024}
	for _, addr := range addrs {
		tn, err := tcpnet.ListenConfig("127.0.0.1:0", resolver, tcfg)
		if err != nil {
			f.close()
			return nil, err
		}
		tableMu.Lock()
		table[addr] = tn.ListenAddr()
		tableMu.Unlock()
		f.nodes = append(f.nodes, &fedNode{addr: addr, net: tn, attrs: map[string]any{"GPU": true}})
	}
	f.seedAttrs()
	f.gw = f.nodes[cfg.gateway]

	nodeCfg := core.Config{
		Scribe:             scribe.Config{AggregateInterval: aggregateInterval},
		MembershipInterval: membershipInterval,
	}
	for _, n := range f.nodes {
		if err := f.startNode(n, reg, nodeCfg, dir); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, n := range f.nodes {
		n := n
		n.node.DoWait(func() { n.node.Refederate() })
	}

	// The gateway shares its node's WAL as ops.Store, like rbayd.
	f.gwSrv = httpgw.NewGateway(f.gw.node, httpgw.Options{
		Timeout:   30 * time.Second,
		OpsStore:  &opsStoreWrap{inner: f.gw.log, in: f.in},
		OpsConfig: ops.Config{Workers: 8, QueueMax: 256},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = &http.Server{
		Handler:           &httpWrap{inner: f.gwSrv, in: f.in},
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = f.srv.Serve(ln) }() // returns when close() closes the server
	f.url = "http://" + ln.Addr().String()

	if err := f.converge(20 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// seedAttrs gives every node its mem_gb and cpu_util. The seed picks which
// half of each site is in mem_big and which half in cpu_idle, and the
// values; tree sizes are the same under every seed, so runs on different
// seeds do the same amount of background aggregation.
func (f *federation) seedAttrs() {
	rng := rand.New(rand.NewSource(f.cfg.seed))
	per := f.cfg.nodesPerSite
	for s := range f.cfg.sites {
		site := f.nodes[s*per : (s+1)*per]
		for i, k := range rng.Perm(per) {
			mem := []float64{8, 16}[rng.Intn(2)]
			if i < per/2 {
				mem *= 4
			}
			site[k].attrs["mem_gb"] = mem
		}
		for i, k := range rng.Perm(per) {
			cpu := float64(rng.Intn(50))
			if i >= per/2 {
				cpu += 50
			}
			site[k].attrs["cpu_util"] = cpu
		}
	}
}

// startNode opens the node's store, attaches it to its network, posts its
// attributes and joins it through its seed: the first node bootstraps,
// every other first-of-site joins through it, the rest through their own
// site's first node (global and site scope), which is what rbayd's
// -bootstrap / -seed flags do.
func (f *federation) startNode(n *fedNode, reg *naming.Registry, nodeCfg core.Config, dir core.Directory) error {
	var sd store.Dir = store.NewMemDir()
	if f.dataDir != "" {
		d, err := store.OpenOSDir(filepath.Join(f.dataDir, n.addr.Site+"-"+n.addr.Host))
		if err != nil {
			return err
		}
		sd = d
	}
	log, _, err := store.Open(&devDir{inner: sd, in: f.in, syncDelay: f.cfg.syncDelay},
		store.Options{Policy: store.SyncAlways})
	if err != nil {
		return err
	}
	n.log = log
	nodeCfg.Store = &coreStoreWrap{Store: log, in: f.in}
	node, err := core.New(&netWrap{inner: n.net, in: f.in, gateway: n == f.gw}, n.addr, reg, nodeCfg)
	if err != nil {
		return err
	}
	n.node = node
	n.net.OnPeerDown(func(a transport.Addr) {
		node.Do(func() { node.Pastry().NoteAddrFailure(a) })
	})
	var attachErr error
	node.DoWait(func() {
		node.SetDirectory(dir)
		for name, v := range n.attrs {
			node.SetAttribute(name, v)
		}
		attachErr = node.AttachPolicy("GPU", passwordPolicy)
	})
	if attachErr != nil {
		return attachErr
	}

	first := f.nodes[0]
	if n == first {
		node.DoWait(func() { node.Pastry().BootstrapAlone() })
		return nil
	}
	seed := first.addr
	if n.addr.Host != hostName(0) {
		seed = transport.Addr{Site: n.addr.Site, Host: hostName(0)}
	}
	if err := joinScope(node, func(done func()) error { return node.Pastry().JoinGlobal(seed, done) }); err != nil {
		return fmt.Errorf("bench: %v global join through %v: %w", n.addr, seed, err)
	}
	if seed.Site == n.addr.Site {
		if err := joinScope(node, func(done func()) error { return node.Pastry().JoinSite(seed, done) }); err != nil {
			return fmt.Errorf("bench: %v site join through %v: %w", n.addr, seed, err)
		}
	}
	return nil
}

func joinScope(node *core.Node, join func(done func()) error) error {
	joined := make(chan struct{})
	var err error
	node.DoWait(func() { err = join(func() { close(joined) }) })
	if err != nil {
		return err
	}
	select {
	case <-joined:
		return nil
	case <-time.After(15 * time.Second):
		return errors.New("timed out")
	}
}

// expectedCount is the member count of a site's tree given what every
// node of the site posted at start.
func (f *federation) expectedCount(site string, def naming.TreeDef) int64 {
	var c int64
	for _, n := range f.nodes {
		if n.addr.Site == site && def.Pred.Eval(n.attrs[def.Pred.Attr]) {
			c++
		}
	}
	return c
}

// treeCount asks n for the size of its site's tree.
func treeCount(n *core.Node, tree string) (int64, error) {
	type result struct {
		count int64
		err   error
	}
	ch := make(chan result, 1)
	n.Do(func() {
		err := n.TreeStats(tree, func(st core.TreeStats, err error) { ch <- result{st.Count, err} })
		if err != nil {
			ch <- result{0, err}
		}
	})
	select {
	case r := <-ch:
		return r.count, r.err
	case <-time.After(5 * time.Second):
		return 0, errors.New("bench: tree stats timed out")
	}
}

// converge waits until, in every site, every tree's root reports the
// expected member count to the node at the gateway's host index.
func (f *federation) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for si, site := range f.cfg.sites {
		probe := f.nodes[si*f.cfg.nodesPerSite+f.cfg.gateway].node
		for _, def := range trees {
			want := f.expectedCount(site, def)
			for {
				got, err := treeCount(probe, def.Name)
				if err == nil && got == want {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("bench: tree %s in %s did not converge: count %d, want %d (%v)", def.Name, site, got, want, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	return nil
}

// close stops the HTTP listener and every node's network, which ends the
// node's event loop. It is the crash path (no departure announcements):
// the run's checks have already been made.
func (f *federation) close() {
	if f.srv != nil {
		_ = f.srv.Close()
	}
	for _, n := range f.nodes {
		_ = n.net.Close()
		if n.log != nil {
			_ = n.log.Close()
		}
	}
	if f.dataDir != "" {
		_ = os.RemoveAll(f.dataDir)
	}
}

// checkDataRoot makes sure the data root is writable and names its
// filesystem, so a run never silently measures the wrong device.
func checkDataRoot(root string) (fsType string, err error) {
	if root == "" {
		return "memdir", nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("bench: data root %s is not writable: %w", root, err)
	}
	probe, err := os.CreateTemp(root, ".probe-*")
	if err != nil {
		return "", fmt.Errorf("bench: data root %s is not writable: %w", root, err)
	}
	_ = probe.Close()
	if err := os.Remove(probe.Name()); err != nil {
		return "", err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(root, &st); err != nil {
		return "", err
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0xEF53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683E:
		return "btrfs", nil
	case 0x794C7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), nil
}
