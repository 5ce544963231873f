package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbay/internal/metrics"
)

// slowDir is a MemDir whose fsync takes a while, so Syncs issued
// meanwhile have something to pile up behind.
type slowDir struct {
	*MemDir
	delay time.Duration
}

func (d slowDir) OpenAppend(name string) (File, error) {
	f, err := d.MemDir.OpenAppend(name)
	return slowFile{f, d.delay}, err
}

type slowFile struct {
	File
	delay time.Duration
}

func (f slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestAppendOnlyQueues: a Record* call returns before the device sees
// anything; Sync is what makes the record survive a crash.
func TestAppendOnlyQueues(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l.RecordSet("a", 1)
	if n := len(dir.Bytes(WALName)); n != 0 {
		t.Fatalf("append wrote %d bytes to the device", n)
	}
	if !l.SyncDue() {
		t.Fatal("SyncAlways with an undurable record must report SyncDue")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.SyncDue() {
		t.Fatal("SyncDue after Sync")
	}
	dir.Crash()
	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["a"].Value != 1 {
		t.Fatalf("synced record lost on crash: %+v", st.Attrs)
	}
	l.Close()
}

// TestSyncDueByPolicy: the policies nobody waits on ask for a Sync only
// once the pending buffer has outgrown its bound.
func TestSyncDueByPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncInterval, SyncNever} {
		l, _ := openOrDie(t, NewMemDir(), Options{Policy: p})
		l.RecordSet("a", 1)
		if l.SyncDue() {
			t.Errorf("%v: SyncDue after one small record", p)
		}
		big := string(make([]byte, flushThreshold))
		l.RecordSet("b", big)
		if !l.SyncDue() {
			t.Errorf("%v: SyncDue false with %d bytes pending", p, flushThreshold)
		}
		l.Close()
	}
}

// pileUpFile is a WAL handle whose fsync takes exactly as long as it
// takes every caller that is not part of the flush in progress to queue
// its next frame behind it — a slow device, without a clock.
type pileUpFile struct {
	File
	l      *Log
	active *atomic.Int64 // callers still running
	frames int           // frames in the flush being synced
}

func (f *pileUpFile) Write(p []byte) (int, error) {
	recs, _, _ := decodeWAL(p)
	f.frames = len(recs)
	return f.File.Write(p)
}

func (f *pileUpFile) Sync() error {
	for {
		f.l.mu.Lock()
		queued := f.l.pendN
		f.l.mu.Unlock()
		if queued >= int(f.active.Load())-f.frames {
			return f.File.Sync()
		}
		runtime.Gosched()
	}
}

// TestSyncCoalesces is the group-commit contract: 64 goroutines each
// making op records durable one at a time share fsyncs — at most one per
// twenty records, on a device slow enough that the others queue up
// meanwhile — every caller's frame is on the device when its RecordOp
// returns, and buffer order stays sequence order.
func TestSyncCoalesces(t *testing.T) {
	const callers, each = 64, 8
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	reg := metrics.NewRegistry()
	l.SetMetrics(reg)
	var active atomic.Int64
	active.Store(callers)
	l.w = &pileUpFile{File: l.w, l: l, active: &active}

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer active.Add(-1)
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("op-%d-%d.", g, i)
				l.RecordOp(StoredOp{ID: id, Kind: "attrs", State: "pending"})
				if !bytes.Contains(dir.CrashCopy().Bytes(WALName), []byte(id)) {
					t.Errorf("RecordOp(%s) returned before its frame was fsynced", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := uint64(callers * each)
	fsyncs := reg.Counter("rbay_wal_fsync_total")
	if fsyncs == 0 || float64(fsyncs)/float64(total) > 0.05 {
		t.Fatalf("%d fsyncs for %d records: want at most 0.05 fsyncs/op", fsyncs, total)
	}
	if h := reg.Histogram("rbay_wal_group_size").Snapshot(); h.Count != fsyncs || uint64(h.Sum) != total {
		t.Fatalf("group sizes: %d groups summing to %v, want %d summing to %d", h.Count, h.Sum, fsyncs, total)
	}
	if reg.Counter("rbay_wal_bytes_total") != uint64(len(dir.Bytes(WALName))) {
		t.Fatal("rbay_wal_bytes_total does not match the WAL")
	}

	recs, good, err := decodeWAL(dir.Bytes(WALName))
	if err != nil || good != len(dir.Bytes(WALName)) {
		t.Fatalf("WAL has an undecodable tail after concurrent appends: %d of %d (%v)", good, len(dir.Bytes(WALName)), err)
	}
	if len(recs) != int(total) {
		t.Fatalf("WAL holds %d records, want %d", len(recs), total)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d; buffer order diverged from seq order", i, r.Seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashOnFlushBoundary: write and fsync happen together per flush, so
// a crash at any moment leaves whole frames with contiguous sequence
// numbers and no torn tail.
func TestCrashOnFlushBoundary(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				l.RecordSet(fmt.Sprintf("k%d-%d", g, i), i)
				if i%3 == 0 {
					_ = l.Sync()
				}
			}
		}(g)
	}
	wg.Wait()
	dir.Crash()

	raw := dir.Bytes(WALName)
	recs, good, err := decodeWAL(raw)
	if err != nil || good != len(raw) {
		t.Fatalf("crash left a torn tail: %d of %d bytes decode", good, len(raw))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("post-crash WAL skips seq at %d: got %d", i, r.Seq)
		}
	}
	l.Close()
}

// TestCompactionRidesSync: compaction is triggered by the Sync that finds
// CompactEvery records behind it, appends keep queueing while it runs,
// concurrent Syncs do not deadlock with it, and the dir replays to the
// last value of every key. Records that were pending when the snapshot
// was cut reach the new WAL at or below the snapshot's sequence number
// and are skipped on replay.
func TestCompactionRidesSync(t *testing.T) {
	const callers, each = 8, 60
	dir := NewMemDir()
	l, _ := openOrDie(t, slowDir{dir, 50 * time.Microsecond}, Options{Policy: SyncAlways, CompactEvery: 10})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.RecordSet(fmt.Sprintf("k%d", g), i)
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(dir.Bytes(SnapName)) == 0 {
		t.Fatal("compaction never ran")
	}
	dir.Crash() // every Sync returned: nothing may be lost
	_, st := openOrDie(t, dir, Options{})
	for g := 0; g < callers; g++ {
		if v := st.Attrs[fmt.Sprintf("k%d", g)].Value; v != each-1 {
			t.Fatalf("k%d = %#v after replay, want %d", g, v, each-1)
		}
	}
	if st.Seq != callers*each {
		t.Fatalf("replayed seq %d, want %d", st.Seq, callers*each)
	}
	l.Close()
}

// TestSnapshotCoversPendingFrames pins the replay rule compaction off the
// append path relies on: a frame written after the snapshot that already
// holds it is skipped.
func TestSnapshotCoversPendingFrames(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncNever, CompactEvery: 1 << 20})
	l.RecordSet("a", 1)
	l.RecordReserve("q", time.Unix(5, 0))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Cut the snapshot the way a flush leader does while two more records
	// sit in the pending buffer, then let them reach the fresh WAL.
	l.mu.Lock()
	l.leadLocked()
	l.mu.Unlock()
	l.RecordRelease("q")
	l.RecordSet("a", 2)
	l.mu.Lock()
	l.compactLocked()
	l.stepDownLocked()
	l.mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := decodeWAL(dir.Bytes(WALName))
	if len(recs) != 2 {
		t.Fatalf("fresh WAL holds %d frames, want the 2 that were pending", len(recs))
	}
	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["a"].Value != 2 || st.Reservation != nil || st.Seq != 4 {
		t.Fatalf("replay over a snapshot that covers the WAL diverged: %+v", st)
	}
}
