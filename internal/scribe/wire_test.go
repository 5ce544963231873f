package scribe

import (
	"encoding/hex"
	"reflect"
	"testing"

	"rbay/internal/ids"
	"rbay/internal/pastry"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// TestWireRoundTrip checks encode/decode equality for every registered
// Scribe message type, including nil-vs-empty slice fields and any-typed
// aggregate values.
func TestWireRoundTrip(t *testing.T) {
	RegisterWire()
	e1 := pastry.EntryFor(transport.Addr{Site: "s1", Host: "a"})
	e2 := pastry.EntryFor(transport.Addr{Site: "s1", Host: "b"})
	topic := TopicID("s1", "CPU_free@site")
	cases := []any{
		joinMsg{},
		joinMsg{Child: e1},
		childAckMsg{Topic: topic, Parent: e2},
		leaveMsg{Topic: topic, Child: e1},
		multicastMsg{},
		multicastMsg{Payload: []string{"a", ""}},
		downcastMsg{Topic: topic, Payload: map[string]any{"cmd": "drain"}},
		aggUpdateMsg{Topic: topic, Child: e1, Value: MeanValue{Sum: 1.5, Count: 3}},
		aggUpdateMsg{Value: nil},
		aggQueryMsg{ReqID: 77, Origin: e2},
		aggReplyMsg{ReqID: 77, Value: MeanValue{}, NoTree: false},
		aggReplyMsg{NoTree: true},
		anycastMsg{},
		anycastMsg{
			Topic:   topic,
			ID:      42,
			Origin:  e1,
			Payload: uint64(9),
			Visited: []ids.ID{e1.ID, e2.ID},
			Stack:   []pastry.Entry{e2},
			Visits:  2,
			Hops:    5,
		},
		anycastMsg{Visited: []ids.ID{}, Stack: []pastry.Entry{}},
		anycastDone{ID: 42, Payload: "done", Satisfied: true, Visits: 1, Hops: 2},
		anycastDone{},
		MeanValue{Sum: -2.5, Count: 10},
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

// TestWireBytesPinned holds Scribe's request/reply messages to the bytes
// they encoded to before their IDs moved to pastry's shared table.
func TestWireBytesPinned(t *testing.T) {
	RegisterWire()
	e1 := pastry.EntryFor(transport.Addr{Site: "s1", Host: "a"})
	e2 := pastry.EntryFor(transport.Addr{Site: "s1", Host: "b"})
	topic := TopicID("s1", "CPU_free@site")
	for _, c := range []struct {
		v   any
		hex string
	}{
		{anycastMsg{Topic: topic, ID: 42, Origin: e1, Payload: uint64(9), Visited: []ids.ID{e1.ID, e2.ID},
			Stack: []pastry.Entry{e2}, Visits: 2, Hops: 5},
			"307ad61c5bded38effe7419a4f1c3a32b32a3dd6c4408ec132242c903f87120b6e2202733101610509033dd6c4408ec132242c903f87120b6e2246a4d85e5b7158d989c46f532db6dc790246a4d85e5b7158d989c46f532db6dc790273310162040a"},
		{anycastDone{ID: 42, Payload: "done", Satisfied: true, Visits: 1, Hops: 2}, "312a0704646f6e65010204"},
		{aggQueryMsg{ReqID: 77, Origin: e2}, "2e4d46a4d85e5b7158d989c46f532db6dc790273310162"},
		{aggReplyMsg{ReqID: 77, Value: MeanValue{Sum: 1.5, Count: 3}}, "2f4d32000000000000f83f0600"},
	} {
		b, err := wire.Marshal(c.v)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", c.v, err)
		}
		if got := hex.EncodeToString(b); got != c.hex {
			t.Errorf("%T encodes to\n  %s\nwant\n  %s", c.v, got, c.hex)
		}
	}
}
