// Package fedcfg loads the two configuration files rbayd daemons share:
// the federation's tree registry (JSON) and the peer table mapping node
// addresses to TCP host:ports. The peer table lists daemons only; clients
// speak HTTP to one daemon's gateway.
package fedcfg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"rbay/internal/core"
	"rbay/internal/naming"
	"rbay/internal/transport"
)

// RegistryFile is the on-disk JSON shape of a tree catalog.
type RegistryFile struct {
	Trees []TreeEntry       `json:"trees"`
	Links map[string]string `json:"links,omitempty"`
}

// TreeEntry declares one tree.
type TreeEntry struct {
	Name    string `json:"name"`
	Attr    string `json:"attr"`
	Op      string `json:"op"`
	Value   any    `json:"value"`
	Parent  string `json:"parent,omitempty"`
	Creator string `json:"creator,omitempty"`
}

// LoadRegistry reads a JSON registry file.
func LoadRegistry(path string) (*naming.Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fedcfg: %w", err)
	}
	return ParseRegistry(data)
}

// ParseRegistry decodes registry JSON.
func ParseRegistry(data []byte) (*naming.Registry, error) {
	var rf RegistryFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("fedcfg: registry: %w", err)
	}
	reg := naming.NewRegistry()
	// Trees may appear in any order in the file; parents must be defined
	// first, so insert to a fixpoint and report whatever remains (cycles
	// or dangling parents).
	pending := append([]TreeEntry(nil), rf.Trees...)
	for len(pending) > 0 {
		progressed := false
		var next []TreeEntry
		var lastErr error
		for _, t := range pending {
			op := naming.Op(t.Op)
			switch op {
			case naming.OpEq, naming.OpNe, naming.OpLt, naming.OpLe, naming.OpGt, naming.OpGe:
			default:
				return nil, fmt.Errorf("fedcfg: tree %q: unknown op %q", t.Name, t.Op)
			}
			creator := t.Creator
			if creator == "" {
				creator = "rbay"
			}
			err := reg.Define(naming.TreeDef{
				Name:    t.Name,
				Pred:    naming.Pred{Attr: t.Attr, Op: op, Value: t.Value},
				Parent:  t.Parent,
				Creator: creator,
			})
			if err != nil {
				if t.Parent != "" {
					if _, defined := reg.Lookup(t.Parent); !defined {
						// Parent not inserted yet: retry next round.
						next = append(next, t)
						lastErr = err
						continue
					}
				}
				return nil, err
			}
			progressed = true
		}
		if !progressed {
			return nil, lastErr
		}
		pending = next
	}
	for attrName, tree := range rf.Links {
		if err := reg.LinkProperty(attrName, tree); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// MarshalRegistry renders a registry back to its JSON file format, so
// catalogs built in code (e.g. the EC2 evaluation catalog) can be written
// out for rbayd deployments.
func MarshalRegistry(reg *naming.Registry) ([]byte, error) {
	var rf RegistryFile
	for _, d := range reg.Defs() {
		rf.Trees = append(rf.Trees, TreeEntry{
			Name:    d.Name,
			Attr:    d.Pred.Attr,
			Op:      string(d.Pred.Op),
			Value:   d.Pred.Value,
			Parent:  d.Parent,
			Creator: d.Creator,
		})
	}
	if links := reg.Links(); len(links) > 0 {
		rf.Links = links
	}
	return json.MarshalIndent(&rf, "", "  ")
}

// LoadPeers reads a peer table: one "site/host tcp-host:port [router]"
// line per node; '#' starts a comment. Besides the endpoint map it
// derives the federation directory the table implies: the sites in the
// order they first appear, and each site's boundary routers — the lines
// that end in the router token, in file order, or the site's first line
// when none does.
func LoadPeers(path string) (map[transport.Addr]string, core.Directory, error) {
	dir := core.Directory{Routers: make(map[string][]transport.Addr)}
	f, err := os.Open(path)
	if err != nil {
		return nil, dir, fmt.Errorf("fedcfg: %w", err)
	}
	defer f.Close()
	table := make(map[transport.Addr]string)
	first := make(map[string]transport.Addr)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		router := len(fields) == 3 && fields[2] == "router"
		if len(fields) != 2 && !router {
			return nil, dir, fmt.Errorf("fedcfg: %s:%d: want 'site/host host:port [router]'", path, lineNo)
		}
		addr, err := ParseAddr(fields[0])
		if err != nil {
			return nil, dir, fmt.Errorf("fedcfg: %s:%d: %w", path, lineNo, err)
		}
		table[addr] = fields[1]
		if _, seen := first[addr.Site]; !seen {
			first[addr.Site] = addr
			dir.Sites = append(dir.Sites, addr.Site)
		}
		if router {
			dir.Routers[addr.Site] = append(dir.Routers[addr.Site], addr)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, dir, fmt.Errorf("fedcfg: %w", err)
	}
	for _, site := range dir.Sites {
		if len(dir.Routers[site]) == 0 {
			dir.Routers[site] = []transport.Addr{first[site]}
		}
	}
	return table, dir, nil
}

// ParseAddr parses "site/host".
func ParseAddr(s string) (transport.Addr, error) {
	site, host, ok := strings.Cut(s, "/")
	if !ok || site == "" || host == "" {
		return transport.Addr{}, fmt.Errorf("malformed node address %q (want site/host)", s)
	}
	return transport.Addr{Site: site, Host: host}, nil
}

// ParseAttrValue interprets a command-line attribute value: true/false,
// a number, or a string.
func ParseAttrValue(s string) any {
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err == nil && fmt.Sprintf("%g", f) == s {
		return f
	}
	return s
}
