// The gateway's asynchronous operations API. Mutations answer 202 with an
// operation record, so this is the client half of the pending-operations
// protocol: transient-error retry with capped backoff (honoring
// Retry-After on 429/503), idempotency keys so those retries never
// double-submit, and -wait polling until the operation reaches a terminal
// state.
//
//	rbayctl -gw http://host:8080 [-idem key] [-tenant name] [-wait] \
//	        reserve 'SELECT 2 FROM * WHERE GPU = true;'
//	rbayctl -gw ... commit <op-id>       # commit the reservation op made
//	rbayctl -gw ... release <op-id>
//	rbayctl -gw ... op <op-id>           # inspect one operation
//	rbayctl -gw ... ops [state]          # list operations
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// gwCand is the gateway's shape of a discovered resource.
type gwCand struct {
	NodeID string `json:"nodeId"`
	Site   string `json:"site"`
	Host   string `json:"host"`
}

// gwOp mirrors the gateway's operation record (internal/ops.Op wire
// shape) without importing internal packages into the client.
type gwOp struct {
	ID         string   `json:"opId"`
	Kind       string   `json:"kind"`
	State      string   `json:"state"`
	QueryID    string   `json:"queryId"`
	Candidates []gwCand `json:"candidates"`
	Shortfall  int      `json:"shortfall"`
	Error      string   `json:"error"`
	Attempts   int      `json:"attempts"`
	Dedup      bool     `json:"dedup"`
}

// gwError is the gateway's structured error body.
type gwError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	OpID  string `json:"opId"`
}

type gwClient struct {
	base    string
	tenant  string
	idem    string
	timeout time.Duration
	hc      *http.Client
}

// runOps runs the asynchronous operations commands and reports any other
// command as unknown.
func (c *gwClient) runOps(rest []string, password string, wait bool) error {
	switch rest[0] {
	case "reserve":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl -gw URL reserve 'SELECT ...'")
		}
		body := map[string]any{"query": rest[1], "caller": "rbayctl"}
		if password != "" {
			body["password"] = password
		}
		return c.submit("/reserve", body, wait)
	case "commit", "release":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl -gw URL %s <op-id>", rest[0])
		}
		return c.submit("/"+rest[0], map[string]any{"fromOp": rest[1]}, wait)
	case "op":
		if len(rest) != 2 {
			return fmt.Errorf("usage: rbayctl -gw URL op <op-id>")
		}
		op, err := c.getOp(rest[1])
		if err != nil {
			return err
		}
		printOp(*op)
		return nil
	case "ops":
		path := "/ops"
		if len(rest) == 2 {
			path += "?state=" + rest[1]
		} else if len(rest) > 2 {
			return fmt.Errorf("usage: rbayctl -gw URL ops [state]")
		}
		var list []gwOp
		if err := c.call(http.MethodGet, path, nil, &list); err != nil {
			return err
		}
		if len(list) == 0 {
			fmt.Println("no operations")
			return nil
		}
		for _, op := range list {
			fmt.Printf("%-24s %-8s %-12s query=%-14s attempts=%d %s\n",
				op.ID, op.Kind, op.State, op.QueryID, op.Attempts, op.Error)
		}
		return nil
	default:
		return fmt.Errorf("unknown operation %q", rest[0])
	}
}

// submit posts a mutation, prints the accepted op, and optionally waits
// for it to reach a terminal state.
func (c *gwClient) submit(path string, body map[string]any, wait bool) error {
	op, err := c.post(path, body)
	if err != nil {
		return err
	}
	if op.Dedup {
		fmt.Printf("op %s already submitted (idempotency key matched), state=%s\n", op.ID, op.State)
	} else {
		fmt.Printf("op %s accepted (%s)\n", op.ID, op.Kind)
	}
	if !wait {
		fmt.Printf("poll with: rbayctl -gw %s op %s\n", c.base, op.ID)
		return nil
	}
	final, err := c.waitOp(op.ID)
	if err != nil {
		return err
	}
	printOp(*final)
	if final.State != "done" {
		return fmt.Errorf("op %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// waitOp polls GET /ops/{id} until the op is terminal or the client
// timeout elapses.
func (c *gwClient) waitOp(id string) (*gwOp, error) {
	deadline := time.Now().Add(c.timeout)
	for {
		op, err := c.getOp(id)
		if err != nil {
			return nil, err
		}
		switch op.State {
		case "done", "failed", "rolled-back":
			return op, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("op %s still %s after %v", id, op.State, c.timeout)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func printCands(cands []gwCand, shortfall int) {
	for _, c := range cands {
		fmt.Printf("  %-28s site=%-12s id=%v\n", c.Site+"/"+c.Host, c.Site, c.NodeID)
	}
	if shortfall > 0 {
		fmt.Printf("  (%d short of the requested count)\n", shortfall)
	}
}

func printOp(op gwOp) {
	fmt.Printf("op %s: %s %s", op.ID, op.Kind, op.State)
	if op.QueryID != "" {
		fmt.Printf(" query=%s", op.QueryID)
	}
	if op.Attempts > 1 {
		fmt.Printf(" attempts=%d", op.Attempts)
	}
	fmt.Println()
	printCands(op.Candidates, op.Shortfall)
	if op.Error != "" {
		fmt.Printf("  error: %s\n", op.Error)
	}
}

func (c *gwClient) getOp(id string) (*gwOp, error) {
	var op gwOp
	if err := c.call(http.MethodGet, "/ops/"+id, nil, &op); err != nil {
		return nil, err
	}
	return &op, nil
}

// post submits with transient-error retry: connection failures, 5xx, and
// 429 are retried with capped exponential backoff (a Retry-After header
// overrides the backoff). Pair with -idem so retries are safe: the
// gateway dedupes resubmissions under the same key.
func (c *gwClient) post(path string, body map[string]any) (*gwOp, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	const attempts = 6
	backoff := 250 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
		}
		req, err := http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(string(payload)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.idem != "" {
			req.Header.Set("Idempotency-Key", c.idem)
		}
		if c.tenant != "" {
			req.Header.Set("X-RBAY-Tenant", c.tenant)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			fmt.Fprintf(os.Stderr, "rbayctl: %v (retrying)\n", err)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
			var op gwOp
			if err := json.Unmarshal(data, &op); err != nil {
				return nil, fmt.Errorf("bad gateway response: %w", err)
			}
			return &op, nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			lastErr = gwErrorOf(resp.StatusCode, data)
			if ra := retryAfter(resp); ra > 0 {
				backoff = ra
			}
			fmt.Fprintf(os.Stderr, "rbayctl: %v (retrying in %v)\n", lastErr, backoff)
			continue
		default:
			return nil, gwErrorOf(resp.StatusCode, data)
		}
	}
	return nil, fmt.Errorf("gateway unavailable after %d attempts: %w", attempts, lastErr)
}

// call sends one request and decodes its JSON answer into into (nil:
// discard it). A non-2xx answer is decoded too, where it fits, and
// returned as an error.
func (c *gwClient) call(method, path string, body io.Reader, into any) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if into != nil {
		err = json.Unmarshal(data, into)
	}
	if resp.StatusCode/100 != 2 {
		return gwErrorOf(resp.StatusCode, data)
	}
	return err
}

// gwErrorOf turns a non-2xx body into an error, preferring the gateway's
// structured {"error","code"} shape.
func gwErrorOf(status int, data []byte) error {
	var ge gwError
	if json.Unmarshal(data, &ge) == nil && ge.Error != "" {
		if ge.Code != "" {
			return fmt.Errorf("gateway %d [%s]: %s", status, ge.Code, ge.Error)
		}
		return fmt.Errorf("gateway %d: %s", status, ge.Error)
	}
	return fmt.Errorf("gateway returned %d: %s", status, strings.TrimSpace(string(data)))
}

func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}
