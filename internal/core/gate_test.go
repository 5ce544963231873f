package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rbay/internal/query"
	"rbay/internal/scribe"
	"rbay/internal/store"
	"rbay/internal/tcpnet"
	"rbay/internal/transport"
)

// tcpFed is a small federation over loopback TCP, one listener per node,
// each node on its own (optionally wrapped) MemDir — the composition
// rbayd uses. The gate is the simulator's, but here the flusher runs on
// its own goroutine, so these tests also see the event loop keep turning
// while a Sync is in flight.
type tcpFed struct {
	nodes []*Node
	disks []*store.MemDir
}

// newTCPFed starts n GPU nodes in one site and joins them. wrap, when
// non-nil, decorates node i's disk before the store opens it.
func newTCPFed(t testing.TB, n int, opts store.Options, wrap func(i int, d *store.MemDir) store.Dir) *tcpFed {
	t.Helper()
	RegisterWire()
	reg := testRegistry(t)
	var mu sync.Mutex
	table := map[transport.Addr]string{}
	resolver := func(a transport.Addr) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		hp, ok := table[a]
		if !ok {
			return "", fmt.Errorf("no peer %v", a)
		}
		return hp, nil
	}
	f := &tcpFed{}
	dir := Directory{Sites: []string{"lab"}, Routers: map[string][]transport.Addr{"lab": {{Site: "lab", Host: "n0"}}}}
	for i := 0; i < n; i++ {
		net, err := tcpnet.Listen("127.0.0.1:0", resolver)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { net.Close() })
		addr := transport.Addr{Site: "lab", Host: fmt.Sprintf("n%d", i)}
		mu.Lock()
		table[addr] = net.ListenAddr()
		mu.Unlock()
		disk := store.NewMemDir()
		var sd store.Dir = disk
		if wrap != nil {
			sd = wrap(i, disk)
		}
		log, _, err := store.Open(sd, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		node, err := New(net, addr, reg, Config{
			Scribe:             scribe.Config{AggregateInterval: 100 * time.Millisecond, AnycastTimeout: 400 * time.Millisecond},
			MembershipInterval: 100 * time.Millisecond,
			SiteQueryTimeout:   800 * time.Millisecond,
			MaxAttempts:        1,
			Store:              log,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.DoWait(func() {
			node.SetDirectory(dir)
			node.SetAttribute("GPU", true)
		})
		if i == 0 {
			node.DoWait(func() { node.Pastry().BootstrapAlone() })
		} else {
			joinTCP(t, node, f.nodes[0].Addr())
		}
		f.nodes = append(f.nodes, node)
		f.disks = append(f.disks, disk)
	}
	for _, node := range f.nodes {
		node := node
		node.DoWait(func() { node.Refederate() })
	}
	return f
}

func joinTCP(t testing.TB, n *Node, seed transport.Addr) {
	t.Helper()
	for _, join := range []func(transport.Addr, func()) error{n.Pastry().JoinGlobal, n.Pastry().JoinSite} {
		joined := make(chan struct{})
		var err error
		n.DoWait(func() { err = join(seed, func() { close(joined) }) })
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
			t.Fatal("join timed out")
		}
	}
}

// settled waits until everything the node has recorded so far is durable.
func settled(t testing.TB, n *Node) {
	t.Helper()
	done := make(chan error, 1)
	n.Do(func() { n.AfterDurable(func(err error) { done <- err }) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node never became durable")
	}
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// treeSize asks n for its site's GPU tree size.
func treeSize(n *Node) int64 {
	ch := make(chan int64, 1)
	n.Do(func() {
		if err := n.TreeSize("GPU", func(c int64, err error) { ch <- c }); err != nil {
			ch <- -1
		}
	})
	select {
	case c := <-ch:
		return c
	case <-time.After(time.Second):
		return -1
	}
}

var errDisk = errors.New("injected fsync error")

// TestNoAckWithoutDurableFrame is the core's share of the invariant, on
// the real transport: once a node's fsync fails, a commit it applied is
// never acked, an ingest ack carries the error, and the node says it
// failed.
func TestNoAckWithoutDurableFrame(t *testing.T) {
	f := newTCPFed(t, 2, store.Options{Policy: store.SyncAlways}, nil)
	origin, owner := f.nodes[0], f.nodes[1]

	// A healthy round first: reserve, commit, acked.
	owner.DoWait(func() { owner.reserve("q-good") })
	acked := make(chan AckResult, 1)
	origin.Do(func() {
		origin.CommitAcked("q-good", []Candidate{{Addr: owner.Addr()}}, time.Second, func(r AckResult) { acked <- r })
	})
	if r := <-acked; r.Matched != 1 {
		t.Fatalf("healthy commit: %+v, want one matched ack", r)
	}
	owner.DoWait(func() { owner.applyLease(leaseEvent{kind: leaseRelease, queryID: "q-good"}) })

	// The fault hits the commit record's own flush: the owner applies the
	// commit in memory (its state may run ahead), the ack waits inside the
	// gate, the Sync fails, and the origin never hears it.
	owner.DoWait(func() { owner.reserve("q-lost") })
	settled(t, owner)
	f.disks[1].SetFaults(store.Faults{Sync: errDisk})
	origin.Do(func() {
		origin.CommitAcked("q-lost", []Candidate{{Addr: owner.Addr()}}, 300*time.Millisecond, func(r AckResult) { acked <- r })
	})
	if r := <-acked; r.Matched != 0 || r.Lost != 1 {
		t.Fatalf("commit at a node whose fsync failed: %+v, want no ack (lost)", r)
	}
	var committed bool
	owner.DoWait(func() { _, committed, _ = owner.Reserved() })
	if !committed {
		t.Fatal("owner did not apply the commit it could not ack: the test exercised nothing")
	}
	select {
	case <-owner.StoreFailed():
	case <-time.After(5 * time.Second):
		t.Fatal("node never reported its store failed")
	}
	if err := owner.StoreErr(); !errors.Is(err, ErrStoreFailed) || !errors.Is(err, errDisk) {
		t.Fatalf("StoreErr = %v, want ErrStoreFailed wrapping the device error", err)
	}
	if got := owner.Metrics().Counter("rbay_store_failed"); got != 1 {
		t.Fatalf("rbay_store_failed = %d, want 1", got)
	}

	// Ingest: the producer hears the error, not nil.
	ingested := make(chan error, 1)
	if err := owner.IngestEnqueue("load", 1.0, "test", func(err error) { ingested <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-ingested; err == nil || !strings.Contains(err.Error(), errDisk.Error()) {
		t.Fatalf("ingest ack after a failed fsync = %v, want the store error", err)
	}
}

// TestFailedVisitIsNotForwarded: an anycast visit reserves a node whose
// fsync then fails. The visit is neither forwarded nor reported, so the
// origin's query gets no candidate out of a record that never reached the
// disk.
func TestFailedVisitIsNotForwarded(t *testing.T) {
	f := newTCPFed(t, 2, store.Options{Policy: store.SyncAlways}, nil)
	origin, owner := f.nodes[0], f.nodes[1]
	waitFor(t, "the GPU tree to hold both nodes", func() bool { return treeSize(origin) == 2 })
	// Only the owner can match: the origin is leased to someone else.
	origin.DoWait(func() { origin.reserved = &lease{queryID: "busy", committed: true} })
	settled(t, owner)
	f.disks[1].SetFaults(store.Faults{Sync: errDisk})

	q, err := query.Parse("SELECT 1 FROM * WHERE GPU = true;")
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan QueryResult, 1)
	origin.Do(func() { origin.Query(q, func(r QueryResult) { res <- r }) })
	select {
	case r := <-res:
		if len(r.Candidates) != 0 {
			t.Fatalf("query returned a candidate reserved by a record that never reached the disk: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query never finished")
	}
	if owner.Metrics().Counter("rbay_visit_reserved_total") == 0 {
		t.Fatal("the failing node was never visited: the test exercised nothing")
	}
	if owner.StoreErr() == nil {
		t.Fatal("the visit's record did not fail the node")
	}
}

// gatedDir blocks every fsync until the test lets it through.
type gatedDir struct {
	*store.MemDir
	release chan struct{}
}

func (d gatedDir) OpenAppend(name string) (store.File, error) {
	f, err := d.MemDir.OpenAppend(name)
	return gatedFile{f, d.release}, err
}

type gatedFile struct {
	store.File
	release chan struct{}
}

func (f gatedFile) Sync() error {
	<-f.release
	return f.File.Sync()
}

// TestOutputsWaitForSync: while the fsync covering a commit record is in
// flight the node keeps taking turns — it serves a tree read — but its
// ack stays inside the gate; the ack leaves, after the read reply it was
// queued behind, once the Sync returns.
func TestOutputsWaitForSync(t *testing.T) {
	release := make(chan struct{}, 64)
	open := func(n int) {
		for i := 0; i < n; i++ {
			release <- struct{}{}
		}
	}
	open(32) // setup records flow freely
	f := newTCPFed(t, 2, store.Options{Policy: store.SyncAlways}, func(i int, d *store.MemDir) store.Dir {
		if i == 1 {
			return gatedDir{d, release}
		}
		return d
	})
	origin, owner := f.nodes[0], f.nodes[1]
	waitFor(t, "the GPU tree to hold both nodes", func() bool { return treeSize(origin) == 2 })
	owner.DoWait(func() { owner.reserve("q") })
	settled(t, owner)
	for len(release) > 0 {
		<-release // from here on every fsync of the owner waits for the test
	}

	acked := make(chan AckResult, 1)
	origin.Do(func() {
		origin.CommitAcked("q", []Candidate{{Addr: owner.Addr()}}, 5*time.Second, func(r AckResult) { acked <- r })
	})
	waitFor(t, "the owner to hold its ack", func() bool { return owner.Metrics().Counter("rbay_gate_held_total") > 0 })
	// The loop is not stalled: the owner answers on its event context.
	turn := make(chan struct{})
	owner.Do(func() { close(turn) })
	select {
	case <-turn:
	case <-time.After(time.Second):
		t.Fatal("owner's event context is stalled behind its fsync")
	}
	select {
	case r := <-acked:
		t.Fatalf("ack %+v left before the commit record was fsynced", r)
	case <-time.After(50 * time.Millisecond):
	}
	if committedOnDisk(t, f.disks[1]) {
		t.Fatal("commit record durable while its fsync is still blocked")
	}
	open(8)
	if r := <-acked; r.Matched != 1 {
		t.Fatalf("after the fsync: %+v, want one matched ack", r)
	}
	if !committedOnDisk(t, f.disks[1]) {
		t.Fatal("ack arrived but a crash now would lose the commit")
	}
	if owner.Metrics().Histogram("rbay_durable_wait_seconds").Snapshot().Count == 0 {
		t.Fatal("rbay_durable_wait_seconds never observed")
	}
}

// committedOnDisk replays what would survive a power cut now and reports
// whether the reservation is committed there.
func committedOnDisk(t testing.TB, d *store.MemDir) bool {
	t.Helper()
	l, st, err := store.Open(d.CrashCopy(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return st.Reservation != nil && st.Reservation.Committed
}

// goid is the calling goroutine's ID, parsed from its stack header.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return string(bytes.Fields(buf[:n])[1])
}

// goroutineDir records which goroutines make device calls.
type goroutineDir struct {
	*store.MemDir
	mu    *sync.Mutex
	calls map[string]string // goroutine → first call it made
}

func (d goroutineDir) note(call string) {
	id := goid()
	d.mu.Lock()
	if _, ok := d.calls[id]; !ok {
		d.calls[id] = call
	}
	d.mu.Unlock()
}

func (d goroutineDir) WriteFile(name string, data []byte) error {
	d.note("WriteFile " + name)
	return d.MemDir.WriteFile(name, data)
}

func (d goroutineDir) Rename(o, n string) error {
	d.note("Rename " + o)
	return d.MemDir.Rename(o, n)
}

func (d goroutineDir) OpenAppend(name string) (store.File, error) {
	f, err := d.MemDir.OpenAppend(name)
	return goroutineFile{f, d}, err
}

type goroutineFile struct {
	store.File
	d goroutineDir
}

func (f goroutineFile) Write(p []byte) (int, error) {
	f.d.note("Write")
	return f.File.Write(p)
}

func (f goroutineFile) Sync() error {
	f.d.note("Sync")
	return f.File.Sync()
}

// TestDeviceCallsStayOffTheEventContext: no Write, Sync, WriteFile or
// Rename on a node's Dir runs on the goroutine that runs its handlers —
// through sets, ingest batches, reservations, the interval timer, and a
// compaction — under either kind of policy.
func TestDeviceCallsStayOffTheEventContext(t *testing.T) {
	for _, opts := range []store.Options{
		{Policy: store.SyncAlways, CompactEvery: 16},
		{Policy: store.SyncInterval, Interval: 5 * time.Millisecond, CompactEvery: 16},
	} {
		t.Run(opts.Policy.String(), func(t *testing.T) {
			var mu sync.Mutex
			calls := map[string]string{}
			f := newTCPFed(t, 2, opts, func(i int, d *store.MemDir) store.Dir {
				if i == 1 {
					return goroutineDir{d, &mu, calls}
				}
				return d
			})
			origin, n := f.nodes[0], f.nodes[1]
			var loop string
			n.DoWait(func() { loop = goid() })

			for i := 0; i < 40; i++ {
				i := i
				n.DoWait(func() { n.SetAttribute("load", float64(i)) })
				acked := make(chan error, 1)
				_ = n.IngestEnqueue("mem", float64(i), "test", func(err error) { acked <- err })
				if err := <-acked; err != nil {
					t.Fatal(err)
				}
			}
			n.DoWait(func() { n.reserve("q") })
			acked := make(chan AckResult, 1)
			origin.Do(func() {
				origin.CommitAcked("q", []Candidate{{Addr: n.Addr()}}, 2*time.Second, func(r AckResult) { acked <- r })
			})
			if r := <-acked; r.Matched != 1 && opts.Policy == store.SyncAlways {
				t.Fatalf("commit: %+v", r)
			}
			waitFor(t, "a compaction", func() bool { return len(f.disks[1].Bytes(store.SnapName)) > 0 })

			mu.Lock()
			defer mu.Unlock()
			if len(calls) == 0 {
				t.Fatal("no device call seen: the test exercised nothing")
			}
			if call, ok := calls[loop]; ok {
				t.Fatalf("device call %q ran on the node's event context", call)
			}
		})
	}
}

// TestGateReleasesInOrder drives the gate directly: outputs held behind
// different records leave oldest first, each only once its own record is
// covered, and a failed Sync fails what is held and keeps the gate shut.
func TestGateReleasesInOrder(t *testing.T) {
	f := newTCPFed(t, 1, store.Options{Policy: store.SyncNever}, nil)
	n := f.nodes[0]
	n.DoWait(func() {
		g := n.g
		var got []string
		out := func(name string) func(error) {
			return func(err error) { got = append(got, fmt.Sprintf("%s:%v", name, err != nil)) }
		}
		base := g.covered
		g.need = base + 1
		g.afterDurable(out("a"))
		g.need = base + 2
		g.afterDurable(out("b"))
		g.afterDurable(out("c"))
		if len(got) != 0 {
			t.Fatalf("outputs left a closed gate: %v", got)
		}
		g.synced(base+1, nil)
		if fmt.Sprint(got) != "[a:false]" {
			t.Fatalf("after covering record 1: %v", got)
		}
		g.need = base + 3
		g.afterDurable(out("d"))
		g.synced(base+2, nil)
		if fmt.Sprint(got) != "[a:false b:false c:false]" {
			t.Fatalf("after covering record 2: %v", got)
		}
		g.synced(0, errDisk)
		if fmt.Sprint(got) != "[a:false b:false c:false d:true]" {
			t.Fatalf("after a failed sync: %v", got)
		}
		g.afterDurable(out("e"))
		if got[len(got)-1] != "e:true" || g.open() {
			t.Fatalf("gate reopened after a failure: %v", got)
		}
	})
}

// TestSimulatorRunsTheGate: simulated nodes with stores run the gate the
// TCP tests above run. A commit's ack waits behind the commit record and
// leaves once its Sync is posted back. When a node's fsync fails, what it
// holds fails with it: an AfterDurable callback hears the error, a held
// commit never reaches its owner, and the node says it failed.
func TestSimulatorRunsTheGate(t *testing.T) {
	fed, disks := storedFed(t, 4, store.SyncAlways, "n0000", "n0001", "n0002", "n0003")
	a, b := fed.BySite["virginia"][0], fed.BySite["virginia"][1]
	heldAt := func(n *Node) uint64 { return n.Metrics().Counter("rbay_gate_held_total") }
	// commit has from commit q at to, which must already hold it, and
	// runs the simulation until the ack settles.
	commit := func(from, to *Node, q string) (r AckResult) {
		t.Helper()
		done := false
		from.CommitAcked(q, []Candidate{{Addr: to.Addr()}}, time.Second, func(res AckResult) { r, done = res, true })
		fed.RunFor(2 * time.Second)
		if !done {
			t.Fatalf("commit %s never settled", q)
		}
		return r
	}

	if !b.reserve("q-good") {
		t.Fatal("reserve failed")
	}
	fed.RunFor(time.Second)
	held := heldAt(b)
	if r := commit(a, b, "q-good"); r.Matched != 1 {
		t.Fatalf("healthy commit: %+v, want one matched ack", r)
	}
	if got := heldAt(b); got <= held {
		t.Fatalf("rbay_gate_held_total %d → %d across a commit: the gate never closed", held, got)
	}
	if b.Metrics().Histogram("rbay_durable_wait_seconds").Snapshot().Count == 0 {
		t.Fatal("rbay_durable_wait_seconds never observed")
	}

	// b's next record fails its fsync. What b holds behind that record —
	// a callback and a commit to a — fails with it.
	if !a.reserve("q-lost") {
		t.Fatal("reserve failed")
	}
	fed.RunFor(time.Second)
	disks["n0001"].SetFaults(store.Faults{Sync: errDisk})
	b.SetAttribute("load", 1.0)
	var durableErr error
	b.AfterDurable(func(err error) { durableErr = err })
	held = heldAt(b)
	if r := commit(b, a, "q-lost"); r.Matched != 0 || r.Lost != 1 {
		t.Fatalf("commit sent by a node whose fsync failed: %+v, want no ack (lost)", r)
	}
	if got := heldAt(b); got != held+1 {
		t.Fatalf("b held %d sends behind its failed record, want the one commit", got-held)
	}
	if _, committed, _ := a.Reserved(); committed {
		t.Fatal("a send held behind a failed fsync was delivered")
	}
	if !errors.Is(durableErr, ErrStoreFailed) || !errors.Is(durableErr, errDisk) {
		t.Fatalf("AfterDurable behind a failed fsync got %v, want ErrStoreFailed wrapping the device error", durableErr)
	}
	select {
	case <-b.StoreFailed():
	default:
		t.Fatal("StoreFailed not closed after a failed fsync")
	}
}

// BenchmarkDurableAck is the pipeline's own overhead: one record on the
// event context → flusher wake-up → Sync on a zero-delay MemDir → release
// posted back → held output runs. Each iteration starts from the previous
// one's release, so nothing but the pipeline is on the clock.
func BenchmarkDurableAck(b *testing.B) {
	f := newTCPFed(b, 1, store.Options{Policy: store.SyncAlways, CompactEvery: 1 << 30}, nil)
	n := f.nodes[0]
	settled(b, n)
	done := make(chan struct{})
	i := 0
	var step func(error)
	step = func(err error) {
		if err != nil {
			b.Error(err)
		}
		if i == b.N || err != nil {
			close(done)
			return
		}
		i++
		n.SetAttribute("load", float64(i))
		n.AfterDurable(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n.Do(func() { step(nil) })
	<-done
	b.StopTimer()
	if held := n.Metrics().Counter("rbay_gate_held_total"); held < uint64(b.N) {
		b.Fatalf("%d of %d outputs went through the gate", held, b.N)
	}
}
