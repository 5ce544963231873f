package store

import (
	"encoding/binary"
	"strings"
	"testing"
)

// goldenBodies returns the body of every frame in the golden WAL: one or
// more of each record kind.
func goldenBodies(t *testing.T) [][]byte {
	t.Helper()
	raw := readGolden(t, WALName)
	var bodies [][]byte
	for off := 0; off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		bodies = append(bodies, raw[off+8:off+8+n])
		off += 8 + n
	}
	kinds := map[byte]bool{}
	for _, b := range bodies {
		kinds[b[0]] = true
	}
	for k := kindSet; k <= kindOpDelete; k++ {
		if !kinds[k] {
			t.Fatalf("golden WAL holds no %s record", kindNames[k])
		}
	}
	return bodies
}

// TestRecordUnknownKind: a kind outside the record table is refused both
// ways — kind 0 (a zeroed byte) and the snapshot's kind included.
func TestRecordUnknownKind(t *testing.T) {
	for _, kind := range []byte{0, kindSnapshot, 11, 0x63} {
		if _, err := appendRecord(nil, record{Kind: kind, Seq: 1}); err == nil {
			t.Errorf("append of kind %d succeeded", kind)
		}
		if _, err := decodeRecord([]byte{kind, 1}); err == nil {
			t.Errorf("decode of kind %d succeeded", kind)
		}
	}
}

// TestRecordTruncatedAndTrailing: every strict prefix of every golden
// record body fails to decode, and so does a body with a byte after its
// last field; the intact body decodes and re-encodes to itself.
func TestRecordTruncatedAndTrailing(t *testing.T) {
	for _, body := range goldenBodies(t) {
		r, err := decodeRecord(body)
		if err != nil {
			t.Fatalf("golden %s record: %v", kindNames[body[0]], err)
		}
		if again, err := appendRecord(nil, r); err != nil || string(again[8:]) != string(body) {
			t.Fatalf("golden %s record re-encodes to %x, %v; want %x", kindNames[body[0]], again[8:], err, body)
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeRecord(body[:cut]); err == nil {
				t.Fatalf("%s record cut to %d/%d bytes decoded", kindNames[body[0]], cut, len(body))
			}
		}
		trailing := append(append([]byte(nil), body...), 0)
		if _, err := decodeRecord(trailing); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s record with a trailing byte: %v", kindNames[body[0]], err)
		}
	}
}
