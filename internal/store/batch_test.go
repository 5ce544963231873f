package store

import (
	"testing"
)

func TestBatchReplay(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l.RecordSet("pre", "kept")
	l.RecordSetBatch([]BatchSet{
		{Name: "cpu", Value: 0.5},
		{Name: "mem", Value: 0.3},
		{Name: "gpu", Value: true},
	})
	// A later batch overwrites an earlier one's key.
	l.RecordSetBatch([]BatchSet{{Name: "cpu", Value: 0.9}})
	l.Close()

	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["pre"].Value != "kept" {
		t.Fatalf("pre = %+v", st.Attrs["pre"])
	}
	if st.Attrs["cpu"].Value != 0.9 {
		t.Fatalf("cpu = %#v, want 0.9 (later batch wins)", st.Attrs["cpu"].Value)
	}
	if st.Attrs["mem"].Value != 0.3 || st.Attrs["gpu"].Value != true {
		t.Fatalf("batch values lost: %+v", st.Attrs)
	}
}

func TestBatchIsOneFrame(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l.RecordSetBatch([]BatchSet{
		{Name: "a", Value: 1}, {Name: "b", Value: 2}, {Name: "c", Value: 3},
	})
	l.Close()
	raw, ok, err := dir.ReadFile(WALName)
	if err != nil || !ok {
		t.Fatalf("read wal: %v %v", ok, err)
	}
	recs, _, _ := decodeWAL(raw)
	if len(recs) != 1 {
		t.Fatalf("wal holds %d frames, want 1 for a 3-entry batch", len(recs))
	}
	if recs[0].Kind != kindSetBatch || len(recs[0].Batch) != 3 {
		t.Fatalf("frame = %+v, want one setb with 3 entries", recs[0])
	}
}

func TestBatchEmptyRecordsNothing(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l.RecordSetBatch(nil)
	l.RecordSetBatch([]BatchSet{})
	l.Close()
	raw, ok, _ := dir.ReadFile(WALName)
	if ok && len(raw) != 0 {
		t.Fatalf("empty batches appended %d bytes", len(raw))
	}
}

// TestBatchTornFrameAllOrNothing is the durability invariant the ingest
// pipeline leans on: a batch lives in one CRC-covered frame, so a crash
// mid-write drops the whole batch on replay — a prefix of it can never
// be resurrected.
func TestBatchTornFrameAllOrNothing(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncNever})
	l.RecordSet("durable", "yes")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Appended but not synced: the crash tears this frame.
	l.RecordSetBatch([]BatchSet{
		{Name: "x", Value: 1}, {Name: "y", Value: 2}, {Name: "z", Value: 3},
	})
	dir.Crash()

	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["durable"].Value != "yes" {
		t.Fatalf("synced record lost: %+v", st.Attrs)
	}
	for _, name := range []string{"x", "y", "z"} {
		if _, ok := st.Attrs[name]; ok {
			t.Fatalf("torn batch leaked %q — batch durability must be all-or-nothing", name)
		}
	}
}

func TestBatchSurvivesCompaction(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways, CompactEvery: 2})
	l.RecordSetBatch([]BatchSet{{Name: "a", Value: 1}, {Name: "b", Value: 2}})
	l.RecordSet("c", 3) // second record triggers compaction
	l.RecordSetBatch([]BatchSet{{Name: "a", Value: 10}})
	l.Close()

	_, st := openOrDie(t, dir, Options{})
	if st.Attrs["a"].Value != 10 || st.Attrs["b"].Value != 2 || st.Attrs["c"].Value != 3 {
		t.Fatalf("post-compaction state wrong: %+v", st.Attrs)
	}
}
