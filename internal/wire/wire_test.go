package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"rbay/internal/ids"
	"rbay/internal/transport"
)

// testStruct exercises the Register path, including nested any-typed
// fields that recurse through the tagged-value codec.
type testStruct struct {
	Name  string
	N     int
	Addrs []transport.Addr
	Any   any
}

func (v *testStruct) fields(c *Coder) {
	c.String(&v.Name)
	c.Int(&v.N)
	List(c, &v.Addrs, 2, func(a *transport.Addr, c *Coder) { c.Addr(a) })
	c.Value(&v.Any)
}

func init() {
	Register(200,
		func(e *Encoder, v testStruct) { v.fields(e.Coder()) },
		func(d *Decoder) (v testStruct) { v.fields(d.Coder()); return })
}

// builtinCases covers every builtin shape including the zero values the
// issue calls out (0, false, "", nil, []string{}, nested maps) and the
// nil-vs-empty distinction for slices and maps.
func builtinCases() []any {
	return []any{
		nil,
		false,
		true,
		0,
		1,
		-1,
		1 << 40,
		-(1 << 40),
		int64(0),
		int64(-9e15),
		uint64(0),
		uint64(1) << 63,
		0.0,
		-0.5,
		3.14159e300,
		"",
		"hello",
		strings.Repeat("x", 5000),
		"non-ascii é世界 \x00 bytes",
		[]string(nil),
		[]string{},
		[]string{""},
		[]string{"a", "", "c"},
		[]float64(nil),
		[]float64{},
		[]float64{0, -1.5, 2.25},
		[]any(nil),
		[]any{},
		[]any{nil, 1, "two", []any{3.0}},
		map[string]any(nil),
		map[string]any{},
		map[string]any{"k": nil},
		map[string]any{"a": 1, "b": map[string]any{"c": []string{"d"}, "e": false}},
		[]byte(nil),
		[]byte{},
		[]byte{0, 255, 7},
		transport.Addr{},
		transport.Addr{Site: "s1", Host: "h1"},
		ids.Zero,
		ids.HashOf("topic"),
	}
}

func TestBuiltinRoundTrip(t *testing.T) {
	for _, v := range builtinCases() {
		b, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", v, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestRegisteredRoundTrip(t *testing.T) {
	cases := []testStruct{
		{},
		{Name: "n", N: -7, Addrs: []transport.Addr{{Site: "s", Host: "h"}}, Any: uint64(42)},
		{Any: testStruct{Name: "nested", Any: map[string]any{"k": []any{1, nil}}}},
		{Addrs: []transport.Addr{}},
	}
	for _, v := range cases {
		got, err := Roundtrip(v)
		if err != nil {
			t.Fatalf("Roundtrip(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestUnregisteredTypeFailsEncode(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := Marshal(unregistered{1}); err == nil {
		t.Fatal("expected error encoding unregistered type")
	}
	// The error must also surface when nested inside a container.
	if _, err := Marshal([]any{1, unregistered{}}); err == nil {
		t.Fatal("expected error encoding nested unregistered type")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	b, err := Marshal("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(b, 0)); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	to := transport.Addr{Site: "s2", Host: "b"}
	from := transport.Addr{Site: "s1", Host: "a"}
	e := GetEncoder()
	defer PutEncoder(e)
	at := e.BeginFrame(KindData, 7)
	e.DataRest(to, from, map[string]any{"load": 0.25})
	e.EndFrame(at)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}

	r := bytes.NewReader(e.Bytes())
	kind, seq, rest, err := NewFrameReader(r, DefaultMaxFrame).Next()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unread", r.Len())
	}
	if kind != KindData || seq != 7 {
		t.Fatalf("kind=%d seq=%d", kind, seq)
	}
	m, err := DecodeDataRest(rest)
	if err != nil {
		t.Fatal(err)
	}
	if m.To != to || m.From != from {
		t.Fatalf("addrs %v %v", m.To, m.From)
	}
	if !reflect.DeepEqual(m.Payload, map[string]any{"load": 0.25}) {
		t.Fatalf("payload %#v", m.Payload)
	}
}

func TestBatchFrameRoundTrip(t *testing.T) {
	type entry struct {
		to, from transport.Addr
		payload  any
	}
	entries := []entry{
		{transport.Addr{Site: "s", Host: "h1"}, transport.Addr{Site: "s", Host: "h0"}, "one"},
		{transport.Addr{Site: "s", Host: "h2"}, transport.Addr{Site: "s", Host: "h0"}, uint64(2)},
		{transport.Addr{Site: "s", Host: "h3"}, transport.Addr{Site: "s", Host: "h0"}, nil},
	}

	// Build the batch the way the transport does: encode each data-rest,
	// then wrap with count + per-entry length prefixes. Between the first
	// two, a well-framed entry whose payload tag this build does not know.
	var rests [][]byte
	for _, en := range entries {
		e := GetEncoder()
		e.DataRest(en.to, en.from, en.payload)
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
		rests = append(rests, append([]byte(nil), e.Bytes()...))
		PutEncoder(e)
	}
	unknown := append([]byte{1, 's', 2, 'h', '9', 1, 's', 2, 'h', '0'}, 250, 0)
	rests = append(rests[:1], append([][]byte{unknown}, rests[1:]...)...)
	e := GetEncoder()
	defer PutEncoder(e)
	at := e.BeginFrame(KindBatch, 99)
	e.Uvarint(uint64(len(rests)))
	for _, r := range rests {
		e.Uvarint(uint64(len(r)))
		e.b = append(e.b, r...)
	}
	e.EndFrame(at)

	kind, seq, rest, err := NewFrameReader(bytes.NewReader(e.Bytes()), DefaultMaxFrame).Next()
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindBatch || seq != 99 {
		t.Fatalf("kind=%d seq=%d", kind, seq)
	}
	var got []entry
	var errs []error
	if err := DecodeBatchRest(rest, func(m DataMsg, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		got = append(got, entry{m.To, m.From, m.Payload})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("batch %#v, want %#v", got, entries)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unknown value tag") {
		t.Fatalf("entry errors %v, want one unknown tag", errs)
	}
}

func TestPingPongFrames(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	at := e.BeginFrame(KindPing, 41)
	e.EndFrame(at)
	at = e.BeginFrame(KindPong, 42)
	e.Uvarint(41)
	e.EndFrame(at)

	fr := NewFrameReader(bytes.NewReader(e.Bytes()), DefaultMaxFrame)
	kind, seq, rest, err := fr.Next()
	if err != nil || kind != KindPing || seq != 41 || len(rest) != 0 {
		t.Fatalf("ping: kind=%d seq=%d rest=%d err=%v", kind, seq, len(rest), err)
	}
	kind, seq, rest, err = fr.Next()
	if err != nil || kind != KindPong || seq != 42 {
		t.Fatalf("pong: kind=%d seq=%d err=%v", kind, seq, err)
	}
	if echo := NewDecoder(rest).Uvarint(); echo != 41 {
		t.Fatalf("pong echo=%d", echo)
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

func TestParseFrameBoundaries(t *testing.T) {
	// Every strict prefix of a frame is a stream cut short.
	e := GetEncoder()
	at := e.BeginFrame(KindData, 1)
	e.DataRest(transport.Addr{Site: "s", Host: "h"}, transport.Addr{Site: "s", Host: "g"}, "payload")
	e.EndFrame(at)
	full := append([]byte(nil), e.Bytes()...)
	PutEncoder(e)
	for i := 0; i < len(full); i++ {
		if _, _, _, err := NewFrameReader(bytes.NewReader(full[:i]), DefaultMaxFrame).Next(); err == nil {
			t.Fatalf("prefix %d read as a frame", i)
		}
	}

	// A length prefix beyond maxFrame is an error, not an allocation.
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, _, _, err := NewFrameReader(bytes.NewReader(huge), 1024).Next(); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversize frame: %v", err)
	}
}

// TestFrameReaderKeepsBuffer: reading frames no larger than an earlier
// one allocates nothing.
func TestFrameReaderKeepsBuffer(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	at := e.BeginFrame(KindData, 1)
	e.DataRest(transport.Addr{Site: "s", Host: "h"}, transport.Addr{Site: "s", Host: "g"}, "payload")
	e.EndFrame(at)
	frame := e.Bytes()
	r := bytes.NewReader(frame)
	fr := NewFrameReader(r, DefaultMaxFrame)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		if _, _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per frame, want 0", allocs)
	}
}

func TestCorruptInputErrors(t *testing.T) {
	cases := [][]byte{
		{},                        // empty body
		{tagString, 0xff, 0xff},   // malformed string length
		{tagString, 10},           // string length beyond input
		{tagStrings, 200},         // count beyond input
		{tagMap, 5, 0},            // map count beyond input
		{tagID, 1, 2, 3},          // truncated ID
		{tagFloat64, 0, 0},        // truncated float
		{250},                     // unknown tag
		{tagBytes, 0x90, 0x90, 4}, // huge bytes count
	}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(% x): expected error", c)
		}
	}

	// Truncating a valid encoding anywhere must error, never panic.
	for _, v := range builtinCases() {
		b, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(b); i++ {
			if _, err := Unmarshal(b[:i]); err == nil {
				// Some prefixes are themselves valid encodings of a
				// different value only if they consume all input; with
				// the trailing-bytes check that cannot happen, but a
				// shorter valid value can't appear either since tag+body
				// lengths are exact. So any strict prefix must error...
				// unless i==len(b) which the loop excludes.
				t.Errorf("Unmarshal(%#v prefix %d): expected error", v, i)
			}
		}
	}
}

// TestCoderListShapes: nil-vs-empty slices survive a field-list round
// trip, and a list count the remaining bytes cannot hold fails before
// anything is allocated.
func TestCoderListShapes(t *testing.T) {
	type rec struct {
		Names []string
		IDs   []ids.ID
	}
	walk := func(v *rec, c *Coder) {
		List(c, &v.Names, 1, func(p *string, c *Coder) { c.String(p) })
		List(c, &v.IDs, len(ids.ID{}), func(p *ids.ID, c *Coder) { c.ID(p) })
	}
	for _, in := range []rec{{}, {Names: []string{}, IDs: []ids.ID{}}, {Names: []string{"", "x"}, IDs: []ids.ID{ids.HashOf("x")}}} {
		e := GetEncoder()
		walk(&in, e.Coder())
		d := NewDecoder(e.Bytes())
		var out rec
		walk(&out, d.Coder())
		PutEncoder(e)
		if d.Err() != nil || d.Remaining() != 0 || !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip %#v -> %#v (err %v, %d left)", in, out, d.Err(), d.Remaining())
		}
	}

	d := NewDecoder([]byte{3, 1, 2, 3}) // two IDs claimed, three bytes behind them
	var v rec
	List(d.Coder(), &v.IDs, len(ids.ID{}), func(p *ids.ID, c *Coder) { c.ID(p) })
	if d.Err() == nil || v.IDs != nil {
		t.Fatalf("oversized count decoded to %d IDs, err %v", len(v.IDs), d.Err())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate tag")
		}
	}()
	Register[struct{ Y int }](200, func(*Encoder, struct{ Y int }) {}, func(*Decoder) struct{ Y int } { return struct{ Y int }{} })
}

func TestBuiltinTagRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on builtin tag")
		}
	}()
	Register[struct{ Z int }](3, func(*Encoder, struct{ Z int }) {}, func(*Decoder) struct{ Z int } { return struct{ Z int }{} })
}
