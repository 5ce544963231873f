package pastry

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"rbay/internal/ids"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

func wireEntry(site, host string) Entry {
	return EntryFor(transport.Addr{Site: site, Host: host})
}

// TestWireRoundTrip checks encode/decode equality for every registered
// Pastry message type, including zero values and any-typed payloads.
func TestWireRoundTrip(t *testing.T) {
	RegisterWire()
	e1 := wireEntry("s1", "a")
	e2 := wireEntry("s2", "b")
	cases := []any{
		&Message{},
		&Message{
			App:         "rbay",
			Key:         ids.HashOf("k"),
			Scope:       "s1",
			Origin:      e1,
			Hops:        3,
			RecordTrace: true,
			Trace:       []ids.ID{e1.ID, e2.ID},
			Payload:     map[string]any{"x": []any{1, "y"}},
		},
		&Message{Payload: uint64(12345)}, // chaos probe tokens
		directEnvelope{},
		directEnvelope{App: "rbay", From: e1, Payload: probe{Seq: 9}},
		joinStart{Scope: "s", Joiner: e1},
		joinPayload{Joiner: e2},
		joinRows{},
		joinRows{Scope: "s", Rows: []Entry{e1, e2}},
		joinRows{Rows: []Entry{}},
		joinWelcome{Scope: "", Host: e1, Leaves: []Entry{e2}},
		announce{Scope: "s2", Who: e2},
		probe{},
		probe{Seq: 1 << 50},
		probeAck{Seq: 7, Leaves: []Entry{e1}},
		probeAck{},
		repairReq{Scope: "x"},
		repairResp{Scope: "x", Leaves: []Entry{e1, e2}},
		Entry{},
		e1,
	}
	for _, v := range cases {
		got, err := wire.Roundtrip(v)
		if err != nil {
			t.Fatalf("Roundtrip(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

// TestWireCorruptEntries ensures corrupt entry counts error instead of
// over-allocating.
func TestWireCorruptEntries(t *testing.T) {
	RegisterWire()
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Uvarint(1 << 40) // absurd count with no data behind it
	d := wire.NewDecoder(e.Bytes())
	var out []Entry
	entries(d.Coder(), &out)
	if d.Err() == nil {
		t.Fatalf("expected error, got %d entries", len(out))
	}
}

// TestWireBytesPinned holds the routed envelope, Entry and the probe pair
// to the bytes they encoded to at the commit before the RPC envelopes
// (tags 27-29) were deleted: mixed-version federations depend on every
// remaining type keeping its tag and layout.
func TestWireBytesPinned(t *testing.T) {
	RegisterWire()
	e1 := wireEntry("s1", "a")
	e2 := wireEntry("s2", "b")
	for _, c := range []struct {
		v   any
		hex string
	}{
		{e1, "1e3dd6c4408ec132242c903f87120b6e220273310161"},
		{&Message{App: "rbay", Key: ids.HashOf("k"), Scope: "s1", Origin: e1, Hops: 3, RecordTrace: true,
			Trace: []ids.ID{e1.ID, e2.ID}, Payload: "p"},
			"1004726261793fa051f9c6332a61a1e0421d0c5489460273313dd6c4408ec132242c903f87120b6e2202733101610601033dd6c4408ec132242c903f87120b6e2296946694b77efe24f0f554b0deba9df6070170"},
		{directEnvelope{App: "rbay", From: e2, Payload: uint64(9)}, "11047262617996946694b77efe24f0f554b0deba9df602733201620509"},
		{probe{Seq: 300}, "17ac02"},
		{probeAck{Seq: 300, Leaves: []Entry{e1}}, "18ac02023dd6c4408ec132242c903f87120b6e220273310161"},
		{joinStart{Scope: "s1", Joiner: e1}, "120273313dd6c4408ec132242c903f87120b6e220273310161"},
		{joinPayload{Joiner: e2}, "1396946694b77efe24f0f554b0deba9df60273320162"},
		{joinRows{Scope: "s1", Rows: []Entry{e1, e2}}, "14027331033dd6c4408ec132242c903f87120b6e22027331016196946694b77efe24f0f554b0deba9df60273320162"},
		{joinRows{Rows: []Entry{}}, "140001"},
		{joinWelcome{Scope: "s2", Host: e2, Leaves: []Entry{e1}}, "1502733296946694b77efe24f0f554b0deba9df60273320162023dd6c4408ec132242c903f87120b6e220273310161"},
		{joinWelcome{Host: e1}, "15003dd6c4408ec132242c903f87120b6e22027331016100"},
		{announce{Scope: "s2", Who: e2}, "1602733296946694b77efe24f0f554b0deba9df60273320162"},
		{repairReq{Scope: "s1"}, "19027331"},
		{repairResp{Scope: "s1", Leaves: []Entry{e2, e1}}, "1a0273310396946694b77efe24f0f554b0deba9df602733201623dd6c4408ec132242c903f87120b6e220273310161"},
	} {
		b, err := wire.Marshal(c.v)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", c.v, err)
		}
		if got := hex.EncodeToString(b); got != c.hex {
			t.Errorf("%T encodes to\n  %s\nwant\n  %s", c.v, got, c.hex)
		}
		if n := encodeAllocs(c.v); n != 0 {
			t.Errorf("encoding %T allocates %v times, want 0", c.v, n)
		}
	}
}

// encodeAllocs is what encoding v allocates once the encoder's buffer has
// grown. The encoder is the test's own, not the pool's: under -race,
// sync.Pool drops Puts at random and each drop would count as two
// allocations.
func encodeAllocs(v any) float64 {
	var e wire.Encoder
	return testing.AllocsPerRun(20, func() {
		e.Reset()
		e.Value(v)
	})
}

// TestRetiredTagsDecodeToError: a peer built before the RPC envelopes were
// deleted may still send tags 27-29, bare or nested in an envelope; they
// must be refused as unknown, not reinterpreted.
func TestRetiredTagsDecodeToError(t *testing.T) {
	RegisterWire()
	for tag := byte(27); tag <= 29; tag++ {
		if v, err := wire.Unmarshal([]byte{tag, 9, 0}); err == nil || !strings.Contains(err.Error(), "unknown value tag") {
			t.Errorf("retired tag %d decoded to %#v, %v", tag, v, err)
		}
		nested := []byte{tagDirectEnvelope, 0}
		nested = append(nested, make([]byte, len(ids.ID{})+2)...) // zero Entry
		nested = append(nested, tag, 9, 0)
		if v, err := wire.Unmarshal(nested); err == nil || !strings.Contains(err.Error(), "unknown value tag") {
			t.Errorf("retired tag %d inside an envelope decoded to %#v, %v", tag, v, err)
		}
	}
}
