package store

import (
	"testing"
	"time"
)

// fuzzSeedWAL builds a WAL containing one of every record kind, as real
// appends would lay it out.
func fuzzSeedWAL(tb testing.TB) []byte {
	tb.Helper()
	dir := NewMemDir()
	l, _, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	writeEvents(l)
	l.RecordReserve("q2", time.Unix(7, 0))
	l.Close()
	return dir.Bytes(WALName)
}

// FuzzWALDecode hammers the frame decoder with corrupted logs: torn
// tails, bit flips, truncated length prefixes, intact frames it cannot
// decode. The decoder must never panic or over-allocate, must never
// report more good bytes than exist, and must stop on whole-frame
// boundaries so a truncate-and-reopen converges (decode is idempotent
// over its own good prefix).
func FuzzWALDecode(f *testing.F) {
	wal := fuzzSeedWAL(f)
	f.Add(wal)
	f.Add(wal[:len(wal)/2]) // torn mid-frame
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // length prefix > maxRecordLen
	// CRC-valid but undecodable: rejected, not truncated.
	f.Add(append(append([]byte(nil), wal...), frame(`{"q":1,"op":"set"}`)...))
	if len(wal) > 12 {
		flipped := append([]byte(nil), wal...)
		flipped[10] ^= 0x40 // bit flip inside the first frame body
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := decodeWAL(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good=%d out of range [0,%d]", good, len(data))
		}
		if err != nil && good == len(data) {
			t.Fatalf("decode error %v with no undecoded bytes left", err)
		}
		// Replaying the good prefix must yield exactly the same records:
		// that is what Open relies on when it truncates a torn tail.
		recs2, good2, err2 := decodeWAL(data[:good])
		if good2 != good || len(recs2) != len(recs) || err2 != nil {
			t.Fatalf("decode not idempotent over good prefix: (%d recs, %d) vs (%d recs, %d, %v)",
				len(recs), good, len(recs2), good2, err2)
		}
		// Decoded records must be foldable without panic.
		st := State{Attrs: make(map[string]StoredAttr)}
		for _, r := range recs {
			st.apply(r)
		}
		// The snapshot decoder shares the codec: it must error, never
		// panic, on the same garbage.
		_, _ = decodeSnapshot(data)
	})
}

// TestFuzzSeedsReplay keeps the fuzz seed honest: it must decode fully
// and replay the state its events describe.
func TestFuzzSeedsReplay(t *testing.T) {
	raw := fuzzSeedWAL(t)
	recs, good, err := decodeWAL(raw)
	if err != nil || good != len(raw) {
		t.Fatalf("seed WAL does not fully decode: %d of %d, err %v", good, len(raw), err)
	}
	st := State{Attrs: make(map[string]StoredAttr)}
	for _, r := range recs {
		st.apply(r)
	}
	if got, want := st.Attrs["mem_gb"].Value, 8; got != want {
		t.Fatalf("seed replay mem_gb = %#v, want %#v", got, want)
	}
	if got, want := st.Attrs["zone"].Value, "us-east"; got != want {
		t.Fatalf("seed replay zone = %#v, want %#v", got, want)
	}
}
