package core

import (
	"fmt"
	"time"

	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/simnet"
	"rbay/internal/sites"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// FedConfig describes a simulated federation.
type FedConfig struct {
	// Sites lists participating site names (default: the paper's eight
	// EC2 regions).
	Sites []string
	// NodesPerSite is the number of RBAY agents per site. Default 20.
	NodesPerSite int
	// RoutersPerSite is how many boundary routers each site registers in
	// the federation directory. Default 2.
	RoutersPerSite int
	// Node is the per-node configuration.
	Node Config
	// Latency overrides the Table II latency model.
	Latency transport.LatencyModel
	// Jitter is the latency jitter fraction when the default model is
	// used.
	Jitter float64
	// SiteNoise adds per-site heavy-tailed agent delay when the default
	// model is used (see sites.DefaultSiteNoise). Nil disables noise.
	SiteNoise map[string]time.Duration
	// Seed drives all randomness (latency jitter and workloads seeded off
	// this are reproducible).
	Seed int64
	// StoreFor, when set, gives individual nodes their own durable store
	// (the chaos harness backs some nodes with crash-consistent virtual
	// disks this way). Returning nil leaves that node in-memory only.
	StoreFor func(addr transport.Addr) Store
	// WireRoundtrip routes every simulated payload through the binary wire
	// codec (encode + immediate decode) at send time, so simnet runs
	// exercise exactly the marshal/unmarshal paths a TCP deployment uses.
	// An unregistered or non-round-trippable message surfaces as a dropped
	// message instead of silently working only under simulation.
	WireRoundtrip bool
}

func (c FedConfig) withDefaults() FedConfig {
	if len(c.Sites) == 0 {
		c.Sites = sites.EC2
	}
	if c.NodesPerSite <= 0 {
		c.NodesPerSite = 20
	}
	if c.RoutersPerSite <= 0 {
		c.RoutersPerSite = 2
	}
	if c.Latency == nil {
		m := sites.NewModel(c.Jitter, 0, c.Seed)
		m.SiteNoise = c.SiteNoise
		c.Latency = m
	}
	return c
}

// Federation is a fully simulated RBAY deployment: one simnet, one node
// set, one shared tree registry, and the router directory all nodes hold.
type Federation struct {
	Net       *simnet.Network
	Registry  *naming.Registry
	Nodes     []*Node
	BySite    map[string][]*Node
	Directory Directory

	cfg FedConfig
}

// NewFederation builds and wires a federation: nodes are created on a
// simulated network, the overlay is bootstrapped (global scope plus one
// scope per site), routers are selected, and the directory distributed.
func NewFederation(reg *naming.Registry, cfg FedConfig) (*Federation, error) {
	cfg = cfg.withDefaults()
	net := simnet.New(cfg.Latency)
	if cfg.WireRoundtrip {
		RegisterWire()
		net.SetTranscode(wire.Roundtrip)
	}
	fed := &Federation{
		Net:      net,
		Registry: reg,
		BySite:   make(map[string][]*Node),
		cfg:      cfg,
	}
	var overlay []*pastry.Node
	for _, site := range cfg.Sites {
		for i := 0; i < cfg.NodesPerSite; i++ {
			addr := transport.Addr{Site: site, Host: fmt.Sprintf("n%04d", i)}
			nodeCfg := cfg.Node
			if cfg.StoreFor != nil {
				nodeCfg.Store = cfg.StoreFor(addr)
			}
			n, err := fed.NewNode(addr, nodeCfg)
			if err != nil {
				return nil, fmt.Errorf("core: federation: %w", err)
			}
			fed.Nodes = append(fed.Nodes, n)
			fed.BySite[site] = append(fed.BySite[site], n)
			overlay = append(overlay, n.p)
		}
	}
	pastry.Wire(overlay)

	dir := Directory{Sites: append([]string(nil), cfg.Sites...), Routers: make(map[string][]transport.Addr)}
	for _, site := range cfg.Sites {
		r := cfg.RoutersPerSite
		if r > len(fed.BySite[site]) {
			r = len(fed.BySite[site])
		}
		for i := 0; i < r; i++ {
			dir.Routers[site] = append(dir.Routers[site], fed.BySite[site][i].Addr())
		}
	}
	fed.Directory = dir
	for _, n := range fed.Nodes {
		n.SetDirectory(dir)
	}
	return fed, nil
}

// NewNode attaches one more node to the federation's simulated network —
// NewFederation builds every member with it, and a restart scenario
// revives a crashed address with it. It is New on the federation's
// network: a node with a store runs the same output gate as on sockets.
func (f *Federation) NewNode(addr transport.Addr, cfg Config) (*Node, error) {
	return New(f.Net, addr, f.Registry, cfg)
}

// RunFor advances the simulation.
func (f *Federation) RunFor(d time.Duration) { f.Net.RunFor(d) }

// Settle triggers an immediate membership pass on every node and runs the
// simulation long enough for trees to form and aggregates to converge.
func (f *Federation) Settle() {
	for _, n := range f.Nodes {
		n.EvaluateMembershipNow()
	}
	agg := f.cfg.Node.Scribe.AggregateInterval
	if agg <= 0 {
		agg = time.Second
	}
	// Tree joins need a couple of round trips; aggregates need roughly
	// depth × interval to roll up.
	f.RunFor(2*time.Second + 8*agg)
}

// Routers returns the router nodes of a site (the first RoutersPerSite
// nodes).
func (f *Federation) Routers(site string) []*Node {
	r := f.cfg.RoutersPerSite
	ns := f.BySite[site]
	if r > len(ns) {
		r = len(ns)
	}
	return ns[:r]
}
