// Package wire is RBAY's hand-rolled binary wire codec: a length-prefixed
// frame format plus a reflection-free Marshal/Unmarshal registry for every
// protocol message type. It is the only encoding the TCP
// transport (internal/tcpnet) speaks; its predecessor's per-message
// reflective encoder round trip dominated federation messaging cost.
//
// # Frame format
//
// Every wire unit is one frame:
//
//	frame := length(uint32 LE) body
//	body  := kind(byte) seq(uvarint) rest
//
// length covers body only (kind + seq + rest) and is bounded by the
// transport's MaxFrame. seq is the writer's per-connection monotonic frame
// sequence number: every frame — data, batch, ping, pong — is sequenced,
// which is what lets batched frames be ordered and lets a pong identify
// the ping it answers. Frame kinds:
//
//	KindData  rest := addr(to) addr(from) value(payload)
//	KindPing  rest is empty; seq identifies the ping
//	KindPong  rest := uvarint(echo) — the seq of the ping being answered
//	KindBatch rest := uvarint(count) count×{ uvarint(len) data-rest }
//
// A batch coalesces consecutive small data messages written to one peer
// into a single frame (one syscall); entries are length-prefixed so a
// decoder can skip precisely and a corrupt entry is detectable.
//
// # Values
//
// Payloads are encoded as tagged values (the in-repo exemplar is the
// tagged attribute-value codec in internal/store/value.go): one tag byte
// selects either a builtin shape (nil, bool, int, int64, uint64, float64,
// string, []string, []float64, []any, map[string]any, []byte,
// transport.Addr, ids.ID) or a registered message type. A message's layout
// is one field list walked by a Coder (coder.go), and protocol packages
// register it with Register; nested any-typed fields (Message.Payload,
// aggReplyMsg.Value, Candidate.SortKey, ...) recurse through the same
// tagged-value codec.
// Unregistered types fail encoding with an error — nothing silently falls
// back to reflection.
//
// Decoding is strict and allocation-bounded: every length read from the
// stream is checked against the bytes actually remaining before any
// allocation, so truncated, oversized, or corrupt input errors out and can
// neither panic nor over-allocate (fuzzed in fuzz_test.go).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"

	"rbay/internal/ids"
	"rbay/internal/transport"
)

// Frame kinds.
const (
	KindData  byte = 0
	KindPing  byte = 1
	KindPong  byte = 2
	KindBatch byte = 3
)

// DefaultMaxFrame bounds one frame's body when the transport does not
// override it (16 MiB).
const DefaultMaxFrame = 16 << 20

// Value tags. Tags 0-15 are builtin shapes; 16-199 are for protocol
// message types registered by pastry/scribe/core (see each package's
// wire.go for its block); 200-255 are reserved for tests.
const (
	tagNil      byte = 0
	tagFalse    byte = 1
	tagTrue     byte = 2
	tagInt      byte = 3  // varint, decodes to int
	tagInt64    byte = 4  // varint, decodes to int64
	tagUint64   byte = 5  // uvarint, decodes to uint64
	tagFloat64  byte = 6  // 8 bytes LE (IEEE 754 bits)
	tagString   byte = 7  // uvarint len + bytes
	tagStrings  byte = 8  // nil-preserving count, then strings
	tagFloat64s byte = 9  // nil-preserving count, then float64s
	tagSlice    byte = 10 // []any: nil-preserving count, then values
	tagMap      byte = 11 // map[string]any: nil-preserving count, then pairs
	tagBytes    byte = 12 // []byte: nil-preserving count, then raw bytes
	tagAddr     byte = 13 // transport.Addr
	tagID       byte = 14 // ids.ID (16 raw bytes)

	// FirstRegisteredTag is the lowest tag available to Register.
	FirstRegisteredTag byte = 16
)

// codecEntry is one registered type's encode/decode pair.
type codecEntry struct {
	tag byte
	enc func(*Encoder, any)
	dec func(*Decoder) any
}

var (
	regMu  sync.RWMutex
	byType = map[reflect.Type]*codecEntry{}
	byTag  [256]*codecEntry
)

// Register binds a message type to a tag with its encode/decode
// functions, each a one-line call of the type's field list (a static call,
// so encoding does not copy the value to the heap). Tags must be unique
// and >= FirstRegisteredTag; registering the same type or tag twice panics
// (registration is a process-wide, init-time act, so a collision is a
// programming error).
func Register[T any](tag byte, enc func(*Encoder, T), dec func(*Decoder) T) {
	if tag < FirstRegisteredTag {
		panic(fmt.Sprintf("wire: tag %d collides with builtin tags", tag))
	}
	t := reflect.TypeOf((*T)(nil)).Elem()
	entry := &codecEntry{
		tag: tag,
		enc: func(e *Encoder, v any) { enc(e, v.(T)) },
		dec: func(d *Decoder) any { return dec(d) },
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev := byTag[tag]; prev != nil {
		panic(fmt.Sprintf("wire: tag %d registered twice", tag))
	}
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice", t))
	}
	byTag[tag] = entry
	byType[t] = entry
}

func lookupType(t reflect.Type) *codecEntry {
	regMu.RLock()
	e := byType[t]
	regMu.RUnlock()
	return e
}

func lookupTag(tag byte) *codecEntry {
	regMu.RLock()
	e := byTag[tag]
	regMu.RUnlock()
	return e
}

// ---------------------------------------------------------------------------
// Encoder

// Encoder appends the binary encoding to a reusable buffer. Encode errors
// (the only source is an unregistered type reaching Value) are sticky;
// check Err before using Bytes.
type Encoder struct {
	b   []byte
	err error
	c   Coder
}

var encPool = sync.Pool{New: func() any { return &Encoder{b: make([]byte, 0, 512)} }}

// GetEncoder returns a pooled encoder with an empty buffer.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Reset empties the buffer, keeping its capacity, and clears the error.
func (e *Encoder) Reset() {
	e.b = e.b[:0]
	e.err = nil
}

// PutEncoder returns an encoder to the pool. Buffers that grew very large
// are dropped so one jumbo message cannot pin memory forever.
func PutEncoder(e *Encoder) {
	if cap(e.b) > 1<<20 {
		return
	}
	encPool.Put(e)
}

// Bytes returns the encoded buffer (valid until the encoder is reused).
func (e *Encoder) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.b) }

// Err returns the sticky encode error, if any.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Fail records err as the encoder's sticky error (first error wins).
// Field lists outside this package use it to surface domain-level encode
// failures through the same channel as the encoder's own.
func (e *Encoder) Fail(err error) { e.fail(err) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.b = append(e.b, b) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) { e.b = binary.AppendUvarint(e.b, u) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(i int64) { e.b = binary.AppendVarint(e.b, i) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float64 appends the IEEE 754 bits, little endian.
func (e *Encoder) Float64(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Bytes appends length-prefixed raw bytes (count is nil-preserving: 0 for
// nil, len+1 otherwise).
func (e *Encoder) RawBytes(p []byte) {
	e.nilCount(p == nil, len(p))
	e.b = append(e.b, p...)
}

// Append appends raw, already-encoded bytes (used by the transport's
// batcher to splice pre-encoded data-rests into a batch frame).
func (e *Encoder) Append(p []byte) { e.b = append(e.b, p...) }

// Addr appends a transport address.
func (e *Encoder) Addr(a transport.Addr) {
	e.String(a.Site)
	e.String(a.Host)
}

// ID appends a 128-bit identifier as 16 raw bytes.
func (e *Encoder) ID(id ids.ID) { e.b = append(e.b, id[:]...) }

// nilCount writes a nil-preserving count: 0 for nil, n+1 otherwise.
func (e *Encoder) nilCount(isNil bool, n int) {
	if isNil {
		e.Uvarint(0)
	} else {
		e.Uvarint(uint64(n) + 1)
	}
}

// Value appends a tagged value: a builtin shape or a registered message
// type. Unsupported types set the sticky error.
func (e *Encoder) Value(v any) {
	switch x := v.(type) {
	case nil:
		e.Byte(tagNil)
	case bool:
		if x {
			e.Byte(tagTrue)
		} else {
			e.Byte(tagFalse)
		}
	case int:
		e.Byte(tagInt)
		e.Varint(int64(x))
	case int64:
		e.Byte(tagInt64)
		e.Varint(x)
	case uint64:
		e.Byte(tagUint64)
		e.Uvarint(x)
	case float64:
		e.Byte(tagFloat64)
		e.Float64(x)
	case string:
		e.Byte(tagString)
		e.String(x)
	case []string:
		e.Byte(tagStrings)
		e.nilCount(x == nil, len(x))
		for _, s := range x {
			e.String(s)
		}
	case []float64:
		e.Byte(tagFloat64s)
		e.nilCount(x == nil, len(x))
		for _, f := range x {
			e.Float64(f)
		}
	case []any:
		e.Byte(tagSlice)
		e.nilCount(x == nil, len(x))
		for _, v2 := range x {
			e.Value(v2)
		}
	case map[string]any:
		e.Byte(tagMap)
		e.nilCount(x == nil, len(x))
		for k, v2 := range x {
			e.String(k)
			e.Value(v2)
		}
	case []byte:
		e.Byte(tagBytes)
		e.RawBytes(x)
	case transport.Addr:
		e.Byte(tagAddr)
		e.Addr(x)
	case ids.ID:
		e.Byte(tagID)
		e.ID(x)
	default:
		if entry := lookupType(reflect.TypeOf(v)); entry != nil {
			e.Byte(entry.tag)
			entry.enc(e, v)
			return
		}
		e.fail(fmt.Errorf("wire: cannot encode unregistered type %T", v))
	}
}

// ---------------------------------------------------------------------------
// Decoder

// Decoder reads the binary encoding from an in-memory buffer with a
// sticky error: after the first malformed read every subsequent read
// returns zero values, so handwritten Unmarshal code needs a single error
// check at the end. All lengths are validated against the bytes remaining
// before any allocation.
type Decoder struct {
	b   []byte
	off int
	err error
	c   Coder
}

// NewDecoder returns a decoder over b. The decoder does not copy b; the
// caller must not mutate it until decoding finishes (decoded strings and
// byte slices are copies, so they stay valid afterwards).
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Fail records err as the decoder's sticky error (first error wins).
// Field lists outside this package use it to reject structurally valid
// bytes that are semantically corrupt.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated: need %d bytes, have %d", n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return u
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	i, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return i
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float64 reads IEEE 754 bits, little endian.
func (d *Decoder) Float64() float64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// RawBytes reads nil-preserving length-prefixed raw bytes (a copy).
func (d *Decoder) RawBytes() []byte {
	isNil, n := d.nilCount(1)
	if isNil || d.err != nil {
		return nil
	}
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Addr reads a transport address.
func (d *Decoder) Addr() transport.Addr {
	site := d.String()
	host := d.String()
	return transport.Addr{Site: site, Host: host}
}

// ID reads a 128-bit identifier.
func (d *Decoder) ID() ids.ID {
	var id ids.ID
	p := d.take(len(id))
	if p != nil {
		copy(id[:], p)
	}
	return id
}

// nilCount reads a nil-preserving count whose elements each occupy at
// least minElem bytes, guarding allocation against corrupt counts.
func (d *Decoder) nilCount(minElem int) (isNil bool, n int) {
	u := d.Uvarint()
	if u == 0 {
		return true, 0
	}
	u--
	if minElem < 1 {
		minElem = 1
	}
	if u > uint64(d.Remaining()/minElem) {
		d.fail("count %d exceeds %d remaining bytes", u, d.Remaining())
		return false, 0
	}
	return false, int(u)
}

// Count reads a plain element count, guarding allocation: each element
// must occupy at least minElem encoded bytes, so a count larger than
// Remaining/minElem is corrupt.
func (d *Decoder) Count(minElem int) int {
	u := d.Uvarint()
	if minElem < 1 {
		minElem = 1
	}
	if u > uint64(d.Remaining()/minElem) {
		d.fail("count %d exceeds %d remaining bytes", u, d.Remaining())
		return 0
	}
	return int(u)
}

// Value reads a tagged value.
func (d *Decoder) Value() any {
	tag := d.Byte()
	if d.err != nil {
		return nil
	}
	switch tag {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagInt:
		return int(d.Varint())
	case tagInt64:
		return d.Varint()
	case tagUint64:
		return d.Uvarint()
	case tagFloat64:
		return d.Float64()
	case tagString:
		return d.String()
	case tagStrings:
		isNil, n := d.nilCount(1)
		if isNil {
			return []string(nil)
		}
		out := make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, d.String())
		}
		return out
	case tagFloat64s:
		isNil, n := d.nilCount(8)
		if isNil {
			return []float64(nil)
		}
		out := make([]float64, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, d.Float64())
		}
		return out
	case tagSlice:
		isNil, n := d.nilCount(1)
		if isNil {
			return []any(nil)
		}
		out := make([]any, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, d.Value())
		}
		return out
	case tagMap:
		isNil, n := d.nilCount(2)
		if isNil {
			return map[string]any(nil)
		}
		out := make(map[string]any, n)
		for i := 0; i < n && d.err == nil; i++ {
			k := d.String()
			out[k] = d.Value()
		}
		return out
	case tagBytes:
		return d.RawBytes()
	case tagAddr:
		return d.Addr()
	case tagID:
		return d.ID()
	default:
		if entry := lookupTag(tag); entry != nil {
			return entry.dec(d)
		}
		d.fail("unknown value tag %d", tag)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Top-level message marshalling

// Marshal encodes one payload value to a fresh byte slice (tests and the
// simnet transcode hook use it; the transport encodes into pooled buffers
// directly).
func Marshal(v any) ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	e.Value(v)
	if err := e.Err(); err != nil {
		return nil, err
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// Unmarshal decodes one payload value, requiring the buffer be fully
// consumed.
func Unmarshal(b []byte) (any, error) {
	d := NewDecoder(b)
	v := d.Value()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", d.Remaining())
	}
	return v, nil
}

// Roundtrip encodes and immediately decodes a payload, returning the
// decoded copy. The simnet transcode hook uses it so simulated federations
// (the chaos suite, the 10k-node scale scenario) exercise the production
// codec on every message.
func Roundtrip(v any) (any, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	e.Value(v)
	if err := e.Err(); err != nil {
		return nil, err
	}
	d := NewDecoder(e.Bytes())
	out := d.Value()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", d.Remaining())
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Frames

// BeginFrame reserves the length prefix and appends kind and seq,
// returning the offset EndFrame needs to patch the length.
func (e *Encoder) BeginFrame(kind byte, seq uint64) int {
	e.b = append(e.b, 0, 0, 0, 0)
	at := len(e.b) - 4
	e.Byte(kind)
	e.Uvarint(seq)
	return at
}

// EndFrame patches the length prefix reserved by BeginFrame.
func (e *Encoder) EndFrame(at int) {
	binary.LittleEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4))
}

// DataRest appends a data frame's rest: to, from, payload.
func (e *Encoder) DataRest(to, from transport.Addr, payload any) {
	e.Addr(to)
	e.Addr(from)
	e.Value(payload)
}

// DataMsg is one decoded data message.
type DataMsg struct {
	To, From transport.Addr
	Payload  any
}

// FrameReader reads frames from a stream into one body buffer it keeps,
// so a frame allocates only when its body outgrows every earlier one.
type FrameReader struct {
	r    io.Reader
	max  uint32
	hdr  [4]byte
	body []byte
}

// NewFrameReader reads frames from r (buffer it: every frame is two
// reads) whose bodies may be at most maxFrame bytes.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	return &FrameReader{r: r, max: uint32(maxFrame)}
}

// Next reads one frame and parses its body: kind, seq, and the
// kind-specific rest, valid until the next call. A read error, a length
// prefix over the maximum or a malformed body ends the stream: it is
// corrupt or hostile, and the connection should be dropped.
func (fr *FrameReader) Next() (kind byte, seq uint64, rest []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n > fr.max {
		return 0, 0, nil, fmt.Errorf("wire: frame length %d exceeds max %d", n, fr.max)
	}
	if cap(fr.body) < int(n) {
		fr.body = make([]byte, n)
	}
	fr.body = fr.body[:n]
	if _, err := io.ReadFull(fr.r, fr.body); err != nil {
		return 0, 0, nil, err
	}
	d := NewDecoder(fr.body)
	kind = d.Byte()
	seq = d.Uvarint()
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	return kind, seq, fr.body[d.off:], nil
}

// DecodeDataRest parses a data frame's rest.
func DecodeDataRest(rest []byte) (DataMsg, error) {
	d := NewDecoder(rest)
	m := DataMsg{To: d.Addr(), From: d.Addr(), Payload: d.Value()}
	if d.err != nil {
		return DataMsg{}, d.err
	}
	if d.Remaining() != 0 {
		return DataMsg{}, fmt.Errorf("wire: %d trailing bytes after data message", d.Remaining())
	}
	return m, nil
}

// DecodeBatchRest parses a batch frame's rest, handing fn each entry once:
// decoded, or with the error its body failed on (a tag this build does
// not know, say). Entries are length-framed, so one that fails costs only
// itself. Only a framing error — count, entry length, trailing bytes —
// fails the batch; the stream is then corrupt, and the transport drops
// the connection.
func DecodeBatchRest(rest []byte, fn func(DataMsg, error)) error {
	d := NewDecoder(rest)
	n := d.Count(2)
	for i := 0; i < n; i++ {
		entryLen := d.Uvarint()
		if d.err != nil {
			return d.err
		}
		if entryLen > uint64(d.Remaining()) {
			return fmt.Errorf("wire: batch entry %d length %d exceeds %d remaining bytes", i, entryLen, d.Remaining())
		}
		fn(DecodeDataRest(d.take(int(entryLen))))
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after batch", d.Remaining())
	}
	return nil
}
