package store

import (
	"errors"
	"io"
	"syscall"
	"testing"
)

// TestNoDurabilityClaimAfterDeviceFault is the store's share of the
// invariant "no ack without a durable frame": whichever way the device
// fails, the Sync covering the affected record returns the error, every
// later Sync fails fast with the same error without touching the device,
// the device recovering changes nothing, and after a crash the dir
// replays to exactly the last record whose Sync succeeded.
func TestNoDurabilityClaimAfterDeviceFault(t *testing.T) {
	errDisk := errors.New("injected device error")
	cases := []struct {
		name   string
		faults Faults
		want   error
	}{
		{"write error", Faults{Write: errDisk}, errDisk},
		{"fsync error", Faults{Sync: errDisk}, errDisk},
		{"short write", Faults{Short: true}, io.ErrShortWrite},
		{"enospc", Faults{NoSpaceAfter: 10}, syscall.ENOSPC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := NewMemDir()
			l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
			l.RecordSet("good", 1)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}

			dir.SetFaults(tc.faults)
			l.RecordSet("lost", 2)
			l.RecordOp(StoredOp{ID: "op-lost", State: "pending"}) // syncs, cannot report
			if err := l.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("Err after a failed RecordOp = %v, want %v", err, tc.want)
			}
			if err := l.Sync(); !errors.Is(err, tc.want) {
				t.Fatalf("Sync = %v, want %v", err, tc.want)
			}

			// Sticky: the device is healthy again, the Log is not.
			dir.SetFaults(Faults{})
			before := len(dir.Bytes(WALName))
			l.RecordSet("later", 3)
			if l.SyncDue() {
				t.Error("a failed Log still asks for Syncs")
			}
			if err := l.Sync(); !errors.Is(err, tc.want) {
				t.Fatalf("later Sync = %v, want the sticky %v", err, tc.want)
			}
			if err := l.Compact(); !errors.Is(err, tc.want) {
				t.Fatalf("Compact on a failed Log = %v, want %v", err, tc.want)
			}
			if after := len(dir.Bytes(WALName)); after != before {
				t.Fatalf("failed Log kept writing: WAL grew %d → %d bytes", before, after)
			}
			if err := l.Close(); !errors.Is(err, tc.want) {
				t.Fatalf("Close = %v, want %v", err, tc.want)
			}

			dir.Crash()
			_, st := openOrDie(t, dir, Options{})
			if st.Seq != 1 || st.Attrs["good"].Value != 1 || len(st.Attrs) != 1 || len(st.Ops) != 0 {
				t.Fatalf("replay shows records past the last good fsync: %+v", st)
			}
		})
	}
}

// TestCompactionFaultIsSticky: a snapshot that cannot be written fails
// the Sync that triggered it and leaves the WAL, which still holds every
// record, as the recovery source.
func TestCompactionFaultIsSticky(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways, CompactEvery: 3})
	l.RecordSet("a", 1)
	l.RecordSet("b", 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Room for the third frame, not for the snapshot that follows it.
	dir.SetFaults(Faults{NoSpaceAfter: 40})
	l.RecordSet("c", 3)
	if err := l.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Sync = %v, want ENOSPC from the compaction", err)
	}
	l.Close()
	dir.Crash()
	_, st := openOrDie(t, dir, Options{})
	if len(st.Attrs) != 3 {
		t.Fatalf("WAL lost records to a failed compaction: %+v", st.Attrs)
	}
}
