package main

// Isolated probes: one layer's cost with everything else taken away, so a
// regression the workloads show can be localised. Each runs for probeDur
// and reports the median.

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"rbay/internal/attr"
	"rbay/internal/core"
	"rbay/internal/httpgw"
	"rbay/internal/naming"
	"rbay/internal/ops"
	"rbay/internal/query"
	"rbay/internal/store"
	"rbay/internal/tcpnet"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// sampleEach calls fn repeatedly for about dur and returns the median
// duration of one call in nanoseconds. between, if set, runs untimed
// after every 32nd call.
func sampleEach(dur time.Duration, fn func(), between func()) float64 {
	var samples []float64
	deadline := time.Now().Add(dur)
	for i := 1; time.Now().Before(deadline); i++ {
		start := nowNs()
		fn()
		samples = append(samples, float64(nowNs()-start))
		if between != nil && i%32 == 0 {
			between()
		}
	}
	return percentile(samples, 50)
}

// runProbes returns the probe metrics. captured is the messages the Send
// decorator saw in the traced phase; the wire probe replays them.
func runProbes(dur time.Duration, captured []any) (map[string]float64, error) {
	out := map[string]float64{}

	out["query.parse_us"] = sampleEach(dur, func() { _, _ = query.Parse(reserveZql) }, nil) / 1e3

	am := attr.NewMap(attr.Options{NodeID: "east/probe", Site: "east", Now: time.Now})
	am.Set("GPU", true)
	if err := am.Attach("GPU", passwordPolicy); err != nil {
		return nil, err
	}
	out["aal.onget_us"] = sampleEach(dur, func() { _, _ = am.OnGet("GPU", "bench", password) }, nil) / 1e3

	// Half of each batch re-posts the value the map already holds.
	entries := make([]attr.BatchEntry, batchSize)
	for i := range entries {
		entries[i] = attr.BatchEntry{Name: hostName(i), Value: 1.0}
	}
	am.ApplyBatch(entries)
	flip := 0.0
	out["attr.apply_batch_us"] = sampleEach(dur, func() {
		flip++
		for i := 0; i < batchSize/2; i++ {
			entries[i].Value = flip
		}
		am.ApplyBatch(entries)
	}, nil) / 1e3

	log, _, err := store.Open(store.NewMemDir(), store.Options{Policy: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	v := 0.0
	out["store.append_us"] = sampleEach(dur, func() { v++; log.RecordSet("k", v) }, nil) / 1e3
	batch := make([]store.BatchSet, batchSize)
	out["store.append_batch_us"] = sampleEach(dur, func() {
		v++
		for i := range batch {
			batch[i] = store.BatchSet{Name: hostName(i), Value: v}
		}
		log.RecordSetBatch(batch)
	}, nil) / 1e3
	if err := log.Close(); err != nil {
		return nil, err
	}

	if err := nodeProbes(dur, out); err != nil {
		return nil, err
	}
	if err := rttProbe(dur, out); err != nil {
		return nil, err
	}
	wireProbe(dur, captured, out)
	return out, nil
}

// nodeProbes measures ingest, ops and httpgw on one store-less node that
// is alone in its overlay.
func nodeProbes(dur time.Duration, out map[string]float64) error {
	addr := transport.Addr{Site: "probe", Host: hostName(0)}
	tn, err := tcpnet.ListenConfig("127.0.0.1:0", tcpnet.StaticResolver(nil), tcpnet.Config{})
	if err != nil {
		return err
	}
	defer tn.Close() // also ends the node's event loop
	node, err := core.New(tn, addr, naming.NewRegistry(), core.Config{})
	if err != nil {
		return err
	}
	node.DoWait(func() { node.Pastry().BootstrapAlone() })

	acked := make(chan error, 1)
	v := 0.0
	out["ingest.enqueue_ack_us"] = sampleEach(dur, func() {
		v++
		_ = node.IngestEnqueue("load", v, "probe", func(err error) { acked <- err })
		<-acked
	}, nil) / 1e3

	eng := ops.NewEngine(node, nil, ops.Config{})
	drain := func() {
		for eng.QueueDepth() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	req := ops.Request{Kind: ops.KindAttrs, Updates: []ops.Update{{Name: "load", Value: 1.0}}}
	var last ops.Op
	var submitErr error
	out["ops.submit_us"] = sampleEach(dur, func() {
		op, err := eng.Submit(req)
		if err != nil {
			submitErr = err
		}
		last = op
	}, drain) / 1e3
	drain()
	if submitErr != nil {
		return submitErr
	}

	gw := httpgw.NewGateway(node, httpgw.Options{Ops: eng})
	var status int
	get := httptest.NewRequest(http.MethodGet, "/ops/"+last.ID, nil)
	out["httpgw.serve_us"] = sampleEach(dur, func() {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, get)
		status = rec.Code
	}, nil) / 1e3
	if status != http.StatusOK {
		return errors.New("bench: httpgw probe: GET /ops/{id} did not answer 200")
	}
	body := newGenerator(wAttrChurn, 1, 0).batch().Body
	out["httpgw.serve_post_us"] = sampleEach(dur, func() {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/attrs", bytes.NewReader(body)))
		status = rec.Code
	}, drain) / 1e3
	drain()
	if status != http.StatusAccepted {
		return errors.New("bench: httpgw probe: POST /attrs did not answer 202")
	}
	return nil
}

// rttProbe ping-pongs one small message between two loopback networks,
// one in flight.
func rttProbe(dur time.Duration, out map[string]float64) error {
	a := transport.Addr{Site: "probe", Host: "a"}
	b := transport.Addr{Site: "probe", Host: "b"}
	table := map[transport.Addr]string{}
	resolver := func(x transport.Addr) (string, error) { return table[x], nil }
	na, err := tcpnet.ListenConfig("127.0.0.1:0", resolver, tcpnet.Config{})
	if err != nil {
		return err
	}
	defer na.Close()
	nb, err := tcpnet.ListenConfig("127.0.0.1:0", resolver, tcpnet.Config{})
	if err != nil {
		return err
	}
	defer nb.Close()
	table[a], table[b] = na.ListenAddr(), nb.ListenAddr()

	pong := make(chan struct{}, 1)
	epA, err := na.NewEndpoint(a, func(transport.Addr, any) { pong <- struct{}{} })
	if err != nil {
		return err
	}
	var epB atomic.Value // the handler may run before NewEndpoint's result is stored
	ep, err := nb.NewEndpoint(b, func(from transport.Addr, msg any) {
		_ = epB.Load().(transport.Endpoint).Send(from, msg)
	})
	if err != nil {
		return err
	}
	epB.Store(ep)
	var sendErr error
	out["tcpnet.rtt_ms"] = sampleEach(dur, func() {
		if err := epA.Send(b, "ping"); err != nil {
			sendErr = err
			return
		}
		select {
		case <-pong:
		case <-time.After(time.Second):
			sendErr = errors.New("bench: rtt probe: no pong within 1s")
		}
	}, nil) / 1e6
	return sendErr
}

// wireProbe replays captured messages through the codec: one timed pass
// encodes (or decodes) all of them.
func wireProbe(dur time.Duration, captured []any, out map[string]float64) {
	var msgs []any
	var encoded [][]byte
	total := 0
	for _, m := range captured {
		if b, err := wire.Marshal(m); err == nil {
			msgs = append(msgs, m)
			encoded = append(encoded, b)
			total += len(b)
		}
	}
	if len(msgs) == 0 {
		return
	}
	n := float64(len(msgs))
	out["wire.bytes_per_msg"] = float64(total) / n
	out["wire.encode_ns_per_msg"] = sampleEach(dur, func() {
		for _, m := range msgs {
			_, _ = wire.Marshal(m)
		}
	}, nil) / n
	out["wire.decode_ns_per_msg"] = sampleEach(dur, func() {
		for _, b := range encoded {
			_, _ = wire.Unmarshal(b)
		}
	}, nil) / n
}
