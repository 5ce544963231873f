package wire

import (
	"testing"

	"rbay/internal/transport"
)

// FuzzDecodeFrame feeds arbitrary bytes through the full frame pipeline:
// length-prefix parsing, frame-body decoding, and the kind-specific
// decoders. Truncated, oversized, or corrupt input must return an error —
// never panic and never allocate beyond the input size (the allocation
// guards bound every count/length by the bytes actually remaining).
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed frames of each kind.
	seed := func(build func(e *Encoder)) {
		e := GetEncoder()
		build(e)
		f.Add(append([]byte(nil), e.Bytes()...))
		PutEncoder(e)
	}
	seed(func(e *Encoder) {
		at := e.BeginFrame(KindData, 1)
		e.DataRest(transport.Addr{Site: "s", Host: "a"}, transport.Addr{Site: "s", Host: "b"},
			map[string]any{"x": []any{1, "y", nil}})
		e.EndFrame(at)
	})
	seed(func(e *Encoder) {
		at := e.BeginFrame(KindPing, 9)
		e.EndFrame(at)
	})
	seed(func(e *Encoder) {
		at := e.BeginFrame(KindPong, 10)
		e.Uvarint(9)
		e.EndFrame(at)
	})
	seed(func(e *Encoder) {
		sub := GetEncoder()
		sub.DataRest(transport.Addr{Site: "s", Host: "a"}, transport.Addr{Site: "s", Host: "b"}, uint64(7))
		at := e.BeginFrame(KindBatch, 11)
		e.Uvarint(1)
		e.Uvarint(uint64(sub.Len()))
		e.Append(sub.Bytes())
		e.EndFrame(at)
		PutEncoder(sub)
	})
	// Hostile shapes: oversized length prefix, huge counts, unknown tags.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, KindBatch, 0, 0xff, 0xff})
	f.Add([]byte{2, 0, 0, 0, KindData, 0})
	f.Add([]byte{1, 0, 0, 0, 250})

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		body, consumed, err := ParseFrame(data, maxFrame)
		if err != nil || body == nil {
			return
		}
		if consumed > len(data) || len(body) > maxFrame {
			t.Fatalf("ParseFrame over-read: consumed=%d body=%d input=%d", consumed, len(body), len(data))
		}
		kind, _, rest, err := DecodeFrameBody(body)
		if err != nil {
			return
		}
		switch kind {
		case KindData:
			_, _ = DecodeDataRest(rest)
		case KindBatch:
			_ = DecodeBatchRest(rest, func(DataMsg) {})
		case KindPong:
			_, _ = DecodePongRest(rest)
		}
	})
}

// FuzzUnmarshal feeds arbitrary bytes through the tagged-value decoder.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range builtinCases() {
		if b, err := Marshal(v); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{tagMap, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{tagStrings, 0x80, 0x80, 0x01})
	// Pastry's retired tags 27-29 (the deleted RPC envelopes), as an old
	// peer would frame them: request ID, then a nested value.
	for tag := byte(27); tag <= 29; tag++ {
		f.Add([]byte{tag, 9, tagString, 2, 'o', 'k'})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode and decode to the same value
		// (encodings need not be byte-identical: map iteration order).
		b2, err := Marshal(v)
		if err != nil {
			t.Fatalf("re-encode of decoded %#v failed: %v", v, err)
		}
		if _, err := Unmarshal(b2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
