package query

import "testing"

// FuzzParse feeds arbitrary text to the query parser, the first code an
// untrusted caller's SQL reaches (GET /query, POST /reserve, rbayctl).
// Parse must return an error or a query — never panic — and a query it
// accepts must render to canonical text that parses back to the same
// text.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"SELECT 3 FROM * WHERE GPU = true;",
		"SELECT * FROM virginia, tokyo WHERE CPU_utilization < 10% AND mem_gb >= 8;",
		`SELECT 2 FROM * WHERE CPU_model = "Intel Core i7" GROUPBY CPU_utilization DESC;`,
		"SELECT NodeId FROM ireland WHERE instance_type != 'c3.large' GROUPBY _stability.GPU ASC;",
		"SELECT 1 FROM * WHERE x > -1.5e3",
		"SELECT",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its canonical text %q does not parse: %v", src, canon, err)
		}
		if again := q2.String(); again != canon {
			t.Fatalf("Parse(%q): canonical %q re-renders as %q", src, canon, again)
		}
	})
}
