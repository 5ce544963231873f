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
		{joinMsg{Child: e1}, "283dd6c4408ec132242c903f87120b6e220273310161"},
		{childAckMsg{Topic: topic, Parent: e2}, "297ad61c5bded38effe7419a4f1c3a32b346a4d85e5b7158d989c46f532db6dc790273310162"},
		{leaveMsg{Topic: topic, Child: e1}, "2a7ad61c5bded38effe7419a4f1c3a32b33dd6c4408ec132242c903f87120b6e220273310161"},
		{multicastMsg{Payload: []string{"a", ""}}, "2b0803016100"},
		{multicastMsg{}, "2b00"},
		{downcastMsg{Topic: topic, Payload: map[string]any{"cmd": "drain"}}, "2c7ad61c5bded38effe7419a4f1c3a32b30b0203636d640705647261696e"},
		{aggUpdateMsg{Topic: topic, Child: e1, Value: MeanValue{Sum: -2.5, Count: 10}}, "2d7ad61c5bded38effe7419a4f1c3a32b33dd6c4408ec132242c903f87120b6e2202733101613200000000000004c014"},
		{replicaSyncMsg{Topic: topic, Scope: "s1", Root: e2, Epoch: 300, Value: MeanValue{Sum: 4, Count: 2}}, "337ad61c5bded38effe7419a4f1c3a32b302733146a4d85e5b7158d989c46f532db6dc790273310162ac0232000000000000104004"},
		{rootClaimMsg{Topic: topic, Scope: "s1", Root: e1, Epoch: 7}, "347ad61c5bded38effe7419a4f1c3a32b30273313dd6c4408ec132242c903f87120b6e22027331016107"},
		{MeanValue{Sum: 0.25, Count: -1}, "32000000000000d03f01"},
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
