package aal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCompileRun compiles and runs arbitrary text as an admin policy —
// the sandbox's whole job is to survive whatever script it is handed.
// Neither step may panic, and a run (the chunk, then its onGet handler
// when it defines one) never takes more than one step past the default
// budget. The corpus is seeded with the docs/AAL.md examples and the
// policies under examples/.
func FuzzCompileRun(f *testing.F) {
	doc, err := os.ReadFile("../../docs/AAL.md")
	if err != nil {
		f.Fatal(err)
	}
	for _, block := range strings.Split(string(doc), "```lua\n")[1:] {
		code, _, _ := strings.Cut(block, "```")
		f.Add(code)
	}
	policies, err := filepath.Glob("../../examples/policies/*.aal")
	if err != nil || len(policies) == 0 {
		f.Fatalf("no example policies found: %v", err)
	}
	for _, p := range policies {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	budget := Options{}.withDefaults().StepBudget
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src)
		if err != nil {
			return
		}
		r := NewRuntime(Options{})
		_ = r.Run(c)
		if r.Steps() > budget+1 {
			t.Fatalf("chunk ran %d steps, budget %d", r.Steps(), budget)
		}
		if r.HasGlobal("onGet") {
			_, _ = r.CallGlobal("onGet", "customer", "pw")
			if r.Steps() > budget+1 {
				t.Fatalf("onGet ran %d steps, budget %d", r.Steps(), budget)
			}
		}
	})
}
