package fedcfg

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rbay/internal/naming"
	"rbay/internal/transport"
)

func TestParseRegistry(t *testing.T) {
	data := []byte(`{
		"trees": [
			{"name": "brand=Intel", "attr": "CPU_brand", "op": "=", "value": "Intel"},
			{"name": "model=i7", "attr": "CPU_model", "op": "=", "value": "Intel Core i7", "parent": "brand=Intel"},
			{"name": "util<10%", "attr": "CPU_utilization", "op": "<", "value": 0.10},
			{"name": "GPU", "attr": "GPU", "op": "=", "value": true, "creator": "grace"}
		],
		"links": {"year_of_manufacture": "model=i7"}
	}`)
	reg, err := ParseRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Defs()) != 4 {
		t.Fatalf("trees = %d", len(reg.Defs()))
	}
	d, ok := reg.Lookup("model=i7")
	if !ok || d.Parent != "brand=Intel" {
		t.Fatalf("model tree: %+v", d)
	}
	if d, _ := reg.Lookup("util<10%"); d.Pred.Value != 0.10 {
		t.Fatalf("numeric value: %v", d.Pred.Value)
	}
	if d, _ := reg.Lookup("GPU"); d.Pred.Value != true || d.Creator != "grace" {
		t.Fatalf("bool value / creator: %+v", d)
	}
	// The link plans queries on the linked attribute.
	def, exact := reg.PlanPredicate(naming.Pred{Attr: "year_of_manufacture", Op: naming.OpGe, Value: 2015.0})
	if def == nil || exact || def.Name != "model=i7" {
		t.Fatalf("link planning: %v exact=%v", def, exact)
	}
}

func TestParseRegistryErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"trees": [{"name": "x", "attr": "a", "op": "~", "value": 1}]}`,
		`{"trees": [{"name": "x", "attr": "a", "op": "=", "value": 1, "parent": "ghost"}]}`,
		`{"trees": [], "links": {"a": "ghost"}}`,
	}
	for _, c := range cases {
		if _, err := ParseRegistry([]byte(c)); err == nil {
			t.Errorf("ParseRegistry(%q): expected error", c)
		}
	}
}

func TestLoadPeers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.txt")
	content := `# comment
virginia/n1 10.0.0.5:7946

tokyo/n1    192.168.1.9:7946
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	peers, _, err := LoadPeers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %d", len(peers))
	}
	if peers[transport.Addr{Site: "virginia", Host: "n1"}] != "10.0.0.5:7946" {
		t.Errorf("virginia entry: %v", peers)
	}
	if peers[transport.Addr{Site: "tokyo", Host: "n1"}] != "192.168.1.9:7946" {
		t.Errorf("tokyo entry: %v", peers)
	}
}

// TestLoadPeersDirectory: sites come from the addresses in file order;
// a site's routers are its lines marked router, else its first line.
func TestLoadPeersDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.txt")
	content := `tokyo/n1 10.0.1.1:7946
virginia/n2 10.0.0.2:7946
virginia/n1 10.0.0.1:7946 router
tokyo/n2 10.0.1.2:7946
virginia/n3 10.0.0.3:7946 router
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	peers, dir, err := LoadPeers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 5 || peers[transport.Addr{Site: "virginia", Host: "n3"}] != "10.0.0.3:7946" {
		t.Fatalf("peers = %v", peers)
	}
	if got := fmt.Sprint(dir.Sites); got != "[tokyo virginia]" {
		t.Errorf("sites = %s, want [tokyo virginia]", got)
	}
	if got := fmt.Sprint(dir.Routers["tokyo"]); got != "[tokyo/n1]" {
		t.Errorf("tokyo routers = %s, want the first host listed", got)
	}
	if got := fmt.Sprint(dir.Routers["virginia"]); got != "[virginia/n1 virginia/n3]" {
		t.Errorf("virginia routers = %s, want the marked lines in file order", got)
	}
}

func TestLoadPeersErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("too many fields here\n"), 0o644)
	if _, _, err := LoadPeers(bad); err == nil {
		t.Error("malformed line accepted")
	}
	noslash := filepath.Join(dir, "noslash.txt")
	os.WriteFile(noslash, []byte("hostonly 1.2.3.4:1\n"), 0o644)
	if _, _, err := LoadPeers(noslash); err == nil {
		t.Error("address without site accepted")
	}
	if _, _, err := LoadPeers(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("virginia/n3")
	if err != nil || a.Site != "virginia" || a.Host != "n3" {
		t.Fatalf("ParseAddr: %v %v", a, err)
	}
	for _, bad := range []string{"", "nohost", "/x", "x/"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q): expected error", bad)
		}
	}
}

func TestParseAttrValue(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"true", true},
		{"false", false},
		{"3.5", 3.5},
		{"42", 42.0},
		{"c3.8xlarge", "c3.8xlarge"}, // not a number despite digits
		{"9.0", "9.0"},               // trailing zero preserved as string (version numbers)
		{"hello", "hello"},
	}
	for _, c := range cases {
		if got := ParseAttrValue(c.in); got != c.want {
			t.Errorf("ParseAttrValue(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestMarshalRegistryRoundTrip(t *testing.T) {
	reg := naming.NewRegistry()
	reg.MustDefine(naming.TreeDef{Name: "brand=Intel", Pred: naming.Pred{Attr: "CPU_brand", Op: naming.OpEq, Value: "Intel"}, Creator: "a"})
	reg.MustDefine(naming.TreeDef{Name: "util<10%", Pred: naming.Pred{Attr: "u", Op: naming.OpLt, Value: 0.1}, Creator: "a"})
	reg.MustDefine(naming.TreeDef{Name: "model=i7", Pred: naming.Pred{Attr: "m", Op: naming.OpEq, Value: "i7"}, Parent: "brand=Intel", Creator: "b"})
	if err := reg.LinkProperty("year", "model=i7"); err != nil {
		t.Fatal(err)
	}
	data, err := MarshalRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRegistry(data)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, data)
	}
	if len(back.Defs()) != 3 {
		t.Fatalf("trees = %d", len(back.Defs()))
	}
	d, ok := back.Lookup("model=i7")
	if !ok || d.Parent != "brand=Intel" || d.Creator != "b" {
		t.Fatalf("model: %+v", d)
	}
	if back.Links()["year"] != "model=i7" {
		t.Fatalf("links = %v", back.Links())
	}
	// A marshaled registry with a child listed before its parent must
	// still load: Defs() sorts by name, so verify ordering robustness.
	if _, err := ParseRegistry(data); err != nil {
		t.Fatal(err)
	}
}

func TestParseRegistryChildBeforeParent(t *testing.T) {
	data := []byte(`{"trees": [
		{"name": "a-child", "attr": "m", "op": "=", "value": "i7", "parent": "z-parent"},
		{"name": "z-parent", "attr": "b", "op": "=", "value": "Intel"}
	]}`)
	reg, err := ParseRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := reg.Lookup("a-child"); !ok || d.Parent != "z-parent" {
		t.Fatalf("child: %+v ok=%v", d, ok)
	}
	// Truly dangling parents still fail.
	if _, err := ParseRegistry([]byte(`{"trees": [
		{"name": "x", "attr": "a", "op": "=", "value": 1, "parent": "ghost"}
	]}`)); err == nil {
		t.Fatal("dangling parent accepted")
	}
}
