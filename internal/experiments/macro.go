package experiments

import (
	"fmt"
	"strings"
	"time"

	"rbay/internal/core"
	"rbay/internal/metrics"
	"rbay/internal/sites"
	"rbay/internal/workload"
)

// MacroResult holds the composite-query latency measurements shared by
// Fig. 9 and Fig. 10: one latency recorder per (origin site, #sites).
type MacroResult struct {
	Scale   Scale
	Origins []string
	// Latency[origin][numSites] (numSites 1..8; index 0 unused).
	Latency map[string][]*metrics.Dist[time.Duration]
	// Shortfalls counts queries that could not fill k.
	Shortfalls int
	// Queries is the total number of composite queries issued.
	Queries int
}

// RunMacro executes the paper's §IV-C workload: every site's users issue
// composite queries (three predicates focused on one instance type, onGet
// password check) whose location predicate spans 1..8 sites.
func RunMacro(sc Scale) (*MacroResult, error) {
	fed, err := buildMacroFederation(sc)
	if err != nil {
		return nil, err
	}
	res := &MacroResult{
		Scale:   sc,
		Origins: append([]string(nil), sites.EC2...),
		Latency: make(map[string][]*metrics.Dist[time.Duration]),
	}
	for _, o := range res.Origins {
		res.Latency[o] = make([]*metrics.Dist[time.Duration], len(sites.EC2)+1)
		for i := 1; i <= len(sites.EC2); i++ {
			res.Latency[o][i] = new(metrics.Dist[time.Duration])
		}
	}

	// Queries are staggered in virtual time (the paper injects a steady
	// 1,000/s stream, not a synchronized burst): each origin issues one
	// query per spacing interval.
	const spacing = 250 * time.Millisecond
	gen := workload.NewGen(sc.Seed+99, sites.EC2)
	for numSites := 1; numSites <= len(sites.EC2); numSites++ {
		pending := 0
		for _, origin := range res.Origins {
			nodes := fed.BySite[origin]
			rec := res.Latency[origin][numSites]
			for q := 0; q < sc.QueriesPerCell; q++ {
				// Spread query interfaces over the site's nodes, skipping
				// index 0-1 (routers) to keep roles distinct.
				issuer := nodes[(2+q*7)%len(nodes)]
				qry := gen.Composite(origin, numSites, sc.K)
				pending++
				res.Queries++
				rec := rec
				issuer.Pastry().After(time.Duration(q)*spacing, func() {
					issuer.QueryAs(qry, "customer@"+origin, EvalPassword, func(r core.QueryResult) {
						pending--
						rec.Add(r.Elapsed)
						if r.Shortfall > 0 {
							res.Shortfalls++
						}
						// Free reservations so later cells see the full pool.
						issuer.Release(r.QueryID, r.Candidates)
					})
				})
			}
		}
		// Drive the cell to completion.
		for i := 0; i < 1200 && pending > 0; i++ {
			fed.RunFor(100 * time.Millisecond)
		}
		// Let reservation releases settle before the next cell.
		fed.RunFor(2 * time.Second)
	}
	return res, nil
}

// Fig9Result renders the latency CDFs for the three origins the paper
// plots (Virginia, Singapore, Sao Paulo).
type Fig9Result struct {
	Macro   *MacroResult
	Origins []string
}

// Fig9 runs the macro workload and selects the paper's three plotted
// origins.
func Fig9(sc Scale) (*Fig9Result, error) {
	m, err := RunMacro(sc)
	if err != nil {
		return nil, err
	}
	return NewFig9(m), nil
}

// NewFig9 derives Fig. 9 from an existing macro run.
func NewFig9(m *MacroResult) *Fig9Result {
	return &Fig9Result{
		Macro:   m,
		Origins: []string{sites.Virginia, sites.Singapore, sites.SaoPaulo},
	}
}

// Render prints per-origin latency CDFs (5 quantiles per curve).
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 9 — CDF of composite-query latency by origin site (onGet)\n")
	for _, origin := range r.Origins {
		fmt.Fprintf(&b, "\n(%s)\n", sites.DisplayName[origin])
		t := metrics.NewTable("#sites", "p10", "p25", "p50", "p75", "p90", "p99")
		for numSites := 1; numSites <= len(sites.EC2); numSites++ {
			rec := r.Macro.Latency[origin][numSites]
			if rec.Count() == 0 {
				continue
			}
			t.AddRow(
				numSites,
				rec.Percentile(10).Round(time.Millisecond),
				rec.Percentile(25).Round(time.Millisecond),
				rec.Percentile(50).Round(time.Millisecond),
				rec.Percentile(75).Round(time.Millisecond),
				rec.Percentile(90).Round(time.Millisecond),
				rec.Percentile(99).Round(time.Millisecond),
			)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// Fig10Result renders mean ± stddev latency for all eight origins.
type Fig10Result struct {
	Macro *MacroResult
}

// Fig10 runs the macro workload and summarizes every origin.
func Fig10(sc Scale) (*Fig10Result, error) {
	m, err := RunMacro(sc)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Macro: m}, nil
}

// NewFig10 derives Fig. 10 from an existing macro run.
func NewFig10(m *MacroResult) *Fig10Result { return &Fig10Result{Macro: m} }

// Render prints the Fig. 10 bar data: average latency and standard
// deviation per (origin, #sites).
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 10 — mean ± stddev query latency vs #requesting sites\n")
	header := []string{"origin \\ #sites"}
	for i := 1; i <= len(sites.EC2); i++ {
		if i == 1 {
			header = append(header, "local")
		} else {
			header = append(header, fmt.Sprintf("%d-site", i))
		}
	}
	t := metrics.NewTable(header...)
	for _, origin := range r.Macro.Origins {
		row := []any{sites.DisplayName[origin]}
		for numSites := 1; numSites <= len(sites.EC2); numSites++ {
			rec := r.Macro.Latency[origin][numSites]
			row = append(row, fmt.Sprintf("%v±%v",
				rec.Mean().Round(time.Millisecond), rec.Std().Round(time.Millisecond)))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "queries issued: %d, shortfalls: %d\n", r.Macro.Queries, r.Macro.Shortfalls)
	return b.String()
}

// MeanAcrossOrigins averages a #sites column over all origins; tests use
// it to check the paper's 1→5-site rise and 5→8-site plateau.
func (m *MacroResult) MeanAcrossOrigins(numSites int) time.Duration {
	var sum time.Duration
	n := 0
	for _, origin := range m.Origins {
		rec := m.Latency[origin][numSites]
		if rec.Count() == 0 {
			continue
		}
		sum += rec.Mean()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}
