package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rbay/internal/metrics"
)

// TestGroupCommitDurableBeforeReturn is the contract that lets ingest
// ack and the ops gateway 202 ride on group commit unchanged: when a
// Record* call returns under SyncGroup, the record is already fsynced —
// a crash immediately after cannot lose it.
func TestGroupCommitDurableBeforeReturn(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncGroup, GroupWindow: 100 * time.Microsecond})
	l.RecordSet("a", 1)
	l.RecordReserve("q", time.Unix(5, 0))
	dir.Crash() // no Sync, no Close: the appends alone must have been durable
	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["a"].Value != 1 {
		t.Fatalf("group-committed record lost on crash: %+v", st.Attrs)
	}
	if st.Reservation == nil || st.Reservation.QueryID != "q" {
		t.Fatalf("group-committed reservation lost on crash: %+v", st.Reservation)
	}
	l.Close()
}

// TestGroupCommitCoalesces floods the log from concurrent appenders and
// requires the writer to have merged them: far fewer fsyncs than
// records, with every record durable and sequence numbers dense.
func TestGroupCommitCoalesces(t *testing.T) {
	const appenders, each = 8, 50
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncGroup, GroupWindow: 2 * time.Millisecond})
	reg := metrics.NewRegistry()
	l.SetMetrics(reg)

	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.RecordSet(fmt.Sprintf("a%d-%d", g, i), i)
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	total := uint64(appenders * each)
	fsyncs := reg.Counter("rbay_wal_fsync_total")
	if fsyncs == 0 {
		t.Fatal("no fsyncs recorded")
	}
	if fsyncs >= total/2 {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d records", fsyncs, total)
	}
	if bytes := reg.Counter("rbay_wal_bytes_total"); bytes == 0 {
		t.Fatal("rbay_wal_bytes_total never incremented")
	}

	// Buffer order must be sequence order even under concurrency.
	recs, good, err := decodeWAL(dir.Bytes(WALName))
	if err != nil || good != len(dir.Bytes(WALName)) {
		t.Fatalf("WAL has undecodable tail after concurrent appends: %d of %d", good, len(dir.Bytes(WALName)))
	}
	if len(recs) != int(total) {
		t.Fatalf("WAL holds %d records, want %d", len(recs), total)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d; buffer order diverged from seq order", i, r.Seq)
		}
	}
	_, st := openOrDie(t, dir, Options{})
	if len(st.Attrs) != int(total) {
		t.Fatalf("replayed %d attrs, want %d", len(st.Attrs), total)
	}
}

// TestGroupCommitCrashOnGroupBoundary: a crash at any moment leaves the
// synced WAL prefix ending exactly on a group flush boundary — whole
// frames, contiguous sequence numbers, no torn tail — because write and
// fsync happen together per group.
func TestGroupCommitCrashOnGroupBoundary(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncGroup, GroupWindow: 500 * time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				l.RecordSet(fmt.Sprintf("k%d-%d", g, i), i)
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

// TestGroupCommitCompaction: crossing the compaction threshold under
// SyncGroup must not deadlock an appender waiting on its own group and
// must leave a replayable dir.
func TestGroupCommitCompaction(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncGroup, GroupWindow: 100 * time.Microsecond, CompactEvery: 10})
	for i := 0; i < 35; i++ {
		l.RecordSet("k", i)
	}
	l.Close()
	if len(dir.Bytes(SnapName)) == 0 {
		t.Fatal("compaction never ran under SyncGroup")
	}
	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["k"].Value != 34 {
		t.Fatalf("k = %#v, want 34", st.Attrs["k"].Value)
	}
}

// TestGroupCommitSyncInterval: SyncGroup needs no external sync timer.
func TestGroupCommitSyncInterval(t *testing.T) {
	l, _ := openOrDie(t, NewMemDir(), Options{Policy: SyncGroup})
	defer l.Close()
	if iv := l.SyncInterval(); iv != 0 {
		t.Fatalf("SyncGroup SyncInterval = %v, want 0", iv)
	}
}
