package httpgw

import (
	"bytes"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"rbay/internal/ops"
	"rbay/internal/store"
)

// doneFailDir fails, once armed, the WAL write that carries a terminal
// "done" op record — and, the error being sticky, everything after it.
type doneFailDir struct {
	*store.MemDir
	armed *atomic.Bool
}

func (d doneFailDir) OpenAppend(name string) (store.File, error) {
	f, err := d.MemDir.OpenAppend(name)
	return doneFailFile{f, d.armed}, err
}

type doneFailFile struct {
	store.File
	armed *atomic.Bool
}

func (f doneFailFile) Write(p []byte) (int, error) {
	if f.armed.Load() && bytes.Contains(p, []byte("done")) {
		return 0, errors.New("injected write error")
	}
	return f.File.Write(p)
}

// TestGatewayNoAckWithoutDurableFrame is the gateway's share of the
// invariant: an op whose terminal record did not reach the disk never
// reads done, and from then on the gateway accepts nothing — POST
// /reserve answers 503 not 202, the admin PUT answers 503, /readyz goes
// red — while /healthz still says the process is alive.
func TestGatewayNoAckWithoutDurableFrame(t *testing.T) {
	var armed atomic.Bool
	f := newFixtureDisk(t, 0, Options{Timeout: 15 * time.Second}, func(d *store.MemDir) store.Dir {
		return doneFailDir{d, &armed}
	})
	const reserve = `{"query":"SELECT 1 FROM lab WHERE GPU = true;"}`

	// Healthy first: accepted, done, durable, ready.
	status, op, _ := f.postOp(t, "/reserve", reserve, nil)
	if status != http.StatusAccepted {
		t.Fatalf("healthy reserve: status %d", status)
	}
	if got := f.waitOp(t, op.ID); got.State != ops.StateDone {
		t.Fatalf("healthy reserve ended %s: %s", got.State, got.Error)
	}
	if !bytes.Contains(f.disk.CrashCopy().Bytes(store.WALName), []byte("done")) {
		t.Fatal("op read done before its terminal record was fsynced")
	}
	if status := f.getJSON(t, "/readyz", nil); status != http.StatusOK {
		t.Fatalf("/readyz on a healthy node: %d", status)
	}
	status, rel, _ := f.postOp(t, "/release", `{"fromOp":"`+op.ID+`"}`, nil)
	if status != http.StatusAccepted || f.waitOp(t, rel.ID).State != ops.StateDone {
		t.Fatalf("healthy release: status %d", status)
	}

	armed.Store(true)
	status, op, _ = f.postOp(t, "/reserve", reserve, nil)
	if status != http.StatusAccepted {
		t.Fatalf("reserve whose pending record is writable: status %d", status)
	}
	select {
	case <-f.nodes[0].StoreFailed():
	case <-time.After(10 * time.Second):
		t.Fatal("terminal record never failed the node")
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var got ops.Op
		if f.getJSON(t, "/ops/"+op.ID, &got) != http.StatusOK || got.State.Terminal() {
			t.Fatalf("op reads %q though its terminal record is not on disk", got.State)
		}
	}

	status, _, ej := f.postOp(t, "/reserve", reserve, nil)
	if status != http.StatusServiceUnavailable || ej.Code != codeStoreFailed {
		t.Fatalf("reserve on a failed store: status %d code %q, want 503 %s", status, ej.Code, codeStoreFailed)
	}
	req, _ := http.NewRequest(http.MethodPut, f.ts.URL+"/attrs/rack?value=r1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT /attrs on a failed store: %d, want 503", resp.StatusCode)
	}
	var ready errorJSON
	if status := f.getJSON(t, "/readyz", &ready); status != http.StatusServiceUnavailable || ready.Code != codeStoreFailed {
		t.Fatalf("/readyz on a failed store: %d %q", status, ready.Code)
	}
	if status := f.getJSON(t, "/healthz", nil); status != http.StatusOK {
		t.Fatalf("/healthz: %d, want 200 while the process lives", status)
	}
}

// TestReadyzWhileDraining: a draining engine is not ready.
func TestReadyzWhileDraining(t *testing.T) {
	f := newFixture(t)
	if left := f.gw.Engine().Drain(time.Second); left != 0 {
		t.Fatalf("%d ops in flight on an idle gateway", left)
	}
	var ej errorJSON
	if status := f.getJSON(t, "/readyz", &ej); status != http.StatusServiceUnavailable || ej.Code != codeDraining {
		t.Fatalf("/readyz while draining: %d %q", status, ej.Code)
	}
}
