// Command rbayctl is the customer-side client for a real rbayd
// federation. It speaks HTTP to one daemon's gateway (rbayd -http); that
// daemon runs the query or operation, and rbayctl prints the answer. The
// client is never a member of the overlay.
//
// Usage:
//
//	rbayctl -gw http://host:8080 [-password secret] [-view auto|only|skip] \
//	        [-explain] query 'SELECT 3 FROM * WHERE GPU = true;'
//
//	rbayctl -gw URL treesize GPU
//	rbayctl -gw URL deliver GPU '{"new_price": 2.5}'
//	rbayctl -gw URL view register|drop|read <sql>
//	rbayctl -gw URL view list
//
// Views live on the gateway's daemon; see docs/VIEWS.md. The asynchronous
// reserve/commit/release/op/ops commands are in gw.go and
// docs/GATEWAY.md.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rbayctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rbayctl", flag.ContinueOnError)
	gwURL := fs.String("gw", "", "HTTP gateway base URL of an rbayd, e.g. http://host:8080 (required)")
	password := fs.String("password", "", "payload presented to onGet handlers")
	explain := fs.Bool("explain", false, "print the query's trace outline (plan, probes, anycasts, backoff)")
	viewMode := fs.String("view", "", "view mode for query: auto (default), only, skip")
	timeout := fs.Duration("timeout", 30*time.Second, "operation timeout")
	idemKey := fs.String("idem", "", "idempotency key for reserve/commit/release (retries dedupe under it)")
	tenant := fs.String("tenant", "", "tenant name sent as X-RBAY-Tenant")
	waitFlag := fs.Bool("wait", false, "poll a submitted op until it reaches a terminal state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if *gwURL == "" || len(rest) < 1 {
		return fmt.Errorf("usage: rbayctl -gw URL [flags] query|treesize|deliver|view|reserve|commit|release|op|ops ...")
	}
	c := &gwClient{
		base:    strings.TrimRight(*gwURL, "/"),
		tenant:  *tenant,
		idem:    *idemKey,
		timeout: *timeout,
		hc:      &http.Client{Timeout: *timeout},
	}
	switch rest[0] {
	case "query":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl -gw URL query 'SELECT ...'")
		}
		return c.query(rest[1], *password, *viewMode, *explain)
	case "view":
		return c.view(rest[1:], *password)
	case "treesize":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl -gw URL treesize <tree-name>")
		}
		var st struct {
			Site  string `json:"site"`
			Count int64  `json:"count"`
		}
		if err := c.call(http.MethodGet, "/trees/"+url.PathEscape(rest[1]), nil, &st); err != nil {
			return err
		}
		fmt.Printf("tree %q has %d member(s) in site %s\n", rest[1], st.Count, st.Site)
		return nil
	case "deliver":
		if len(rest) != 3 {
			return fmt.Errorf("usage: rbayctl -gw URL deliver <tree-name> <json-payload>")
		}
		// The gateway sends a body that is not JSON as a plain string.
		if err := c.call(http.MethodPost, "/deliver/"+url.PathEscape(rest[1]), strings.NewReader(rest[2]), nil); err != nil {
			return err
		}
		fmt.Println("command delivered")
		return nil
	}
	return c.runOps(rest, *password, *waitFlag)
}

// gwQuery mirrors the gateway's GET /query answer.
type gwQuery struct {
	QueryID    string   `json:"queryId"`
	Candidates []gwCand `json:"candidates"`
	Shortfall  int      `json:"shortfall"`
	Attempts   int      `json:"attempts"`
	ElapsedMS  float64  `json:"elapsedMs"`
	Error      string   `json:"error"`
	Explain    string   `json:"explain"`
}

// query runs one read on the gateway's daemon, which releases what it
// found before answering.
func (c *gwClient) query(sql, password, mode string, explain bool) error {
	v := url.Values{"q": {sql}, "caller": {"rbayctl"}}
	if password != "" {
		v.Set("password", password)
	}
	if mode != "" {
		v.Set("view", mode)
	}
	if explain {
		v.Set("explain", "1")
	}
	var r gwQuery
	// A query that ran and failed answers non-2xx with its ID, outline and
	// error; one refused before it ran has no ID.
	if err := c.call(http.MethodGet, "/query?"+v.Encode(), nil, &r); err != nil && r.QueryID == "" {
		return err
	}
	if r.Error != "" {
		if r.Explain != "" {
			fmt.Println(r.Explain)
		}
		return fmt.Errorf("query %s: %s", r.QueryID, r.Error)
	}
	elapsed := time.Duration(r.ElapsedMS * float64(time.Millisecond))
	fmt.Printf("query %s: %d candidate(s) in %v (%d attempt(s))\n",
		r.QueryID, len(r.Candidates), elapsed.Round(time.Millisecond), r.Attempts)
	printCands(r.Candidates, r.Shortfall)
	if r.Explain != "" {
		fmt.Println()
		fmt.Println(r.Explain)
	}
	return nil
}

// view manages the gateway daemon's materialized views. A view read is a
// query served only from the view.
func (c *gwClient) view(args []string, password string) error {
	if len(args) == 1 && args[0] == "list" {
		var views []struct {
			Key       string        `json:"key"`
			Entries   int           `json:"entries"`
			Staleness time.Duration `json:"stalenessNanos"`
			Refreshes uint64        `json:"refreshes"`
			Served    uint64        `json:"served"`
			Fallbacks uint64        `json:"fallbacks"`
		}
		if err := c.call(http.MethodGet, "/views", nil, &views); err != nil {
			return err
		}
		if len(views) == 0 {
			fmt.Println("no views registered")
		}
		for _, v := range views {
			fmt.Printf("%-60s entries=%-4d staleness=%-8v refreshes=%d served=%d fallbacks=%d\n",
				v.Key, v.Entries, v.Staleness.Round(time.Millisecond), v.Refreshes, v.Served, v.Fallbacks)
		}
		return nil
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: rbayctl -gw URL view register|drop|read <sql> | view list")
	}
	path := "/views?q=" + url.QueryEscape(args[1])
	var out map[string]string
	switch args[0] {
	case "register":
		if err := c.call(http.MethodPost, path, nil, &out); err != nil {
			return err
		}
		fmt.Printf("view registered: %s\n", out["view"])
	case "drop":
		if err := c.call(http.MethodDelete, path, nil, &out); err != nil {
			return err
		}
		fmt.Printf("view dropped: %s\n", out["dropped"])
	case "read":
		return c.query(args[1], password, "only", false)
	default:
		return fmt.Errorf("unknown view operation %q", args[0])
	}
	return nil
}
