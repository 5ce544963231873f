package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"rbay/internal/wire"
)

// WAL format. Each frame is [u32 LE length][u32 LE crc32-IEEE][body] with
//
//	body := kind(byte) seq(uvarint) payload
//
// and one kind per record operation, whose payload layout is its case in
// record.fields. This file is the only place that knows the on-disk
// bytes: the kind table, the value tags and the snapshot layout. A data
// dir holds nothing else; bytes that pass their checksum but do not
// decode make Open fail rather than be dropped (docs/RECOVERY.md).
const (
	kindSet      byte = 1  // attribute value posted/updated
	kindSetBatch byte = 2  // coalesced attribute batch (one frame, many keys)
	kindDelete   byte = 3  // attribute withdrawn
	kindAttach   byte = 4  // AA policy script attached
	kindReserve  byte = 5  // reservation taken or its lease extended
	kindCommit   byte = 6  // reservation committed (leased)
	kindRelease  byte = 7  // reservation released
	kindOpUpsert byte = 8  // gateway operation record created or transitioned
	kindOpDelete byte = 9  // terminal operation record retired (retention)
	kindSnapshot byte = 10 // the snapshot file's single frame
)

// kindNames names each kind in errors. Kind 0 is never written: a zeroed
// byte must not decode as a record.
var kindNames = [...]string{kindSet: "set", kindSetBatch: "setb", kindDelete: "del", kindAttach: "attach",
	kindReserve: "reserve", kindCommit: "commit", kindRelease: "release", kindOpUpsert: "op", kindOpDelete: "opdel",
	kindSnapshot: "snapshot"}

// isRecordKind reports whether a WAL frame may carry kind.
func isRecordKind(kind byte) bool { return kind >= kindSet && kind <= kindOpDelete }

// maxRecordLen bounds one WAL record's payload; a longer length prefix
// means the tail is garbage, not a record.
const maxRecordLen = 1 << 24

// snapMagic prefixes the snapshot file, whose remainder is one
// kindSnapshot frame.
var snapMagic = []byte("rbaysnap\x01")

// fields is the payload layout of every record kind, chosen by r.Kind.
func (r *record) fields(c *wire.Coder) {
	switch r.Kind {
	case kindSet:
		c.String(&r.Attr)
		value(c, &r.Val)
	case kindSetBatch:
		wire.CountedList(c, &r.Batch, 2, (*BatchSet).fields)
	case kindDelete:
		c.String(&r.Attr)
	case kindAttach:
		c.String(&r.Attr)
		c.String(&r.Script)
	case kindReserve:
		c.String(&r.Query)
		c.Varint(&r.Exp)
	case kindCommit, kindRelease, kindOpDelete:
		c.String(&r.Query)
	case kindOpUpsert:
		if r.OpRec == nil {
			if e := c.Encoder(); e != nil {
				e.Fail(errors.New("store: op upsert record without op"))
				return
			}
			r.OpRec = new(StoredOp)
		}
		r.OpRec.fields(c)
	}
}

func (b *BatchSet) fields(c *wire.Coder) {
	c.String(&b.Name)
	value(c, &b.Value)
}

// Value tag bytes: the closed set of attribute value types a frame can
// carry. bool, int, float64, string and []string keep their Go type;
// anything else rides as the JSON text encoding/json renders for it
// (map keys sorted, so WAL bytes stay deterministic) and decodes to the
// generic map/slice/float64 shapes.
const (
	vtNone   byte = 0 // never written; decodes as nil
	vtNil    byte = 1
	vtBool   byte = 2
	vtInt    byte = 3
	vtFloat  byte = 4
	vtString byte = 5
	vtStrs   byte = 6
	vtJSON   byte = 7
)

// encValue writes v under its tag. A value encoding/json cannot render
// degrades to nil rather than poisoning the record.
func encValue(e *wire.Encoder, v any) {
	switch x := v.(type) {
	case nil:
		e.Byte(vtNil)
	case bool:
		e.Byte(vtBool)
		e.Bool(x)
	case int:
		e.Byte(vtInt)
		e.Varint(int64(x))
	case int32:
		e.Byte(vtInt)
		e.Varint(int64(x))
	case int64:
		e.Byte(vtInt)
		e.Varint(x)
	case float32:
		e.Byte(vtFloat)
		e.Float64(float64(x))
	case float64:
		e.Byte(vtFloat)
		e.Float64(x)
	case string:
		e.Byte(vtString)
		e.String(x)
	case []string:
		e.Byte(vtStrs)
		e.Uvarint(uint64(len(x)))
		for _, s := range x {
			e.String(s)
		}
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			e.Byte(vtNil)
			return
		}
		e.Byte(vtJSON)
		e.RawBytes(raw)
	}
}

// decValue reads one tagged value back to its Go type: every integer
// width is an int, every float a float64, an empty []string is nil.
func decValue(d *wire.Decoder) any {
	switch b := d.Byte(); b {
	case vtNone, vtNil:
		return nil
	case vtBool:
		return d.Bool()
	case vtInt:
		return int(d.Varint())
	case vtFloat:
		return d.Float64()
	case vtString:
		return d.String()
	case vtStrs:
		var ss []string
		if n := d.Count(1); n > 0 {
			ss = make([]string, n)
			for i := range ss {
				ss[i] = d.String()
			}
		}
		return ss
	case vtJSON:
		var v any
		if err := json.Unmarshal(d.RawBytes(), &v); err != nil {
			return nil
		}
		return v
	default:
		d.Fail(fmt.Errorf("store: unknown value tag byte %d", b))
		return nil
	}
}

// normValue returns v as a replay will recover it, so the live state and
// the replayed state hold identical values. The types decValue returns
// pass through; any other goes through the codec, which is then the one
// definition of what it becomes.
func normValue(v any) any {
	switch x := v.(type) {
	case nil, bool, int, float64, string:
		return v
	case []string:
		if len(x) > 0 { // an empty one decodes as nil
			return v
		}
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	encValue(e, v)
	return decValue(wire.NewDecoder(e.Bytes()))
}

// value walks one tagged attribute value.
func value(c *wire.Coder, v *any) {
	if e := c.Encoder(); e != nil {
		encValue(e, *v)
	} else {
		*v = decValue(c.Decoder())
	}
}

func (op *StoredOp) fields(c *wire.Coder) {
	c.String(&op.ID)
	c.String(&op.Kind)
	c.String(&op.State)
	c.String(&op.IdemKey)
	c.String(&op.Tenant)
	c.String(&op.Query)
	c.String(&op.Payload)
	c.String(&op.Caller)
	c.String(&op.Mode)
	c.String(&op.FromOp)
	c.String(&op.QueryID)
	wire.CountedList(c, &op.Candidates, 3, (*OpCandidate).fields)
	c.String(&op.Updates)
	c.String(&op.Error)
	c.Int(&op.Shortfall)
	c.Varint(&op.CreatedNanos)
	c.Varint(&op.UpdatedNanos)
}

func (oc *OpCandidate) fields(c *wire.Coder) {
	c.String(&oc.NodeID)
	c.String(&oc.Site)
	c.String(&oc.Host)
}

func encSnapshot(e *wire.Encoder, s State) {
	attrs := s.SortedAttrs()
	e.Uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		e.String(a.Name)
		encValue(e, a.Value)
		e.String(a.Script)
	}
	if r := s.Reservation; r != nil {
		e.Byte(1)
		e.String(r.QueryID)
		e.Varint(r.Expires.UnixNano())
		e.Bool(r.Committed)
	} else {
		e.Byte(0)
	}
	ops := s.SortedOps()
	e.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		op.fields(e.Coder())
	}
}

func decSnapshot(d *wire.Decoder) State {
	s := State{Attrs: make(map[string]StoredAttr)}
	for n := d.Count(3); n > 0; n-- {
		a := StoredAttr{Name: d.String(), Value: decValue(d), Script: d.String()}
		s.Attrs[a.Name] = a
	}
	if d.Byte() != 0 {
		s.Reservation = &StoredReservation{QueryID: d.String(), Expires: time.Unix(0, d.Varint()), Committed: d.Bool()}
	}
	if n := d.Count(17); n > 0 {
		s.Ops = make(map[string]StoredOp, n)
		for ; n > 0; n-- {
			var op StoredOp
			op.fields(d.Coder())
			s.Ops[op.ID] = op
		}
	}
	return s
}

// appendFrame appends one outer frame — [len][crc32][body] — to buf.
func appendFrame(buf, body []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// appendRecord appends r's framed encoding to buf, using a pooled wire
// encoder for the body.
func appendRecord(buf []byte, r record) ([]byte, error) {
	if !isRecordKind(r.Kind) {
		return buf, fmt.Errorf("store: unknown record kind %d", r.Kind)
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(r.Kind)
	e.Uvarint(r.Seq)
	r.fields(e.Coder())
	if err := e.Err(); err != nil {
		return buf, err
	}
	return appendFrame(buf, e.Bytes()), nil
}

// decodeWAL parses framed records from raw, returning the records and the
// byte offset just past the last intact frame. A short, over-long or
// checksum-failing frame is the torn tail of the write a crash
// interrupted: parsing stops there and the caller may truncate to good.
// A frame whose checksum verifies but whose body does not decode was
// written whole by a build with a different format; dropping it would
// erase acknowledged data, so it is an error instead.
func decodeWAL(raw []byte) (recs []record, good int, err error) {
	off := 0
	for off+8 <= len(raw) {
		n := binary.LittleEndian.Uint32(raw[off:])
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if n == 0 || n > maxRecordLen || off+8+int(n) > len(raw) {
			break
		}
		body := raw[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(body) != sum {
			break
		}
		r, derr := decodeRecord(body)
		if derr != nil {
			err = fmt.Errorf("store: wal frame at offset %d, kind byte %#02x, is intact but does not decode: %w", off, body[0], derr)
			return recs, off, hintPreBinary(err, body)
		}
		recs = append(recs, r)
		off += 8 + int(n)
	}
	return recs, off, nil
}

// decodeRecord parses one WAL frame body.
func decodeRecord(body []byte) (r record, err error) {
	d := wire.NewDecoder(body)
	r.Kind, r.Seq = d.Byte(), d.Uvarint()
	if d.Err() == nil && !isRecordKind(r.Kind) {
		return record{}, fmt.Errorf("store: unknown record kind %d", r.Kind)
	}
	r.fields(d.Coder())
	if err := bodyErr(d, r.Kind); err != nil {
		return record{}, err
	}
	return r, nil
}

// bodyErr is what decoding a frame body of the given kind left: d's
// sticky error, or one for bytes no field read.
func bodyErr(d *wire.Decoder, kind byte) error {
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("store: %d trailing bytes after %s record", n, kindNames[kind])
	}
	return nil
}

// hintPreBinary says how to upgrade when undecodable bytes start like the
// JSON text builds before the binary format wrote.
func hintPreBinary(err error, b []byte) error {
	if len(b) > 0 && b[0] == '{' {
		return fmt.Errorf("%w (written by a pre-binary build; open the dir once with a PR 10–12 build and compact it)", err)
	}
	return err
}

// encodeSnapshot renders the whole snapshot file: magic plus one framed
// kindSnapshot record whose header seq is the snapshot sequence.
func encodeSnapshot(s State) ([]byte, error) {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(kindSnapshot)
	e.Uvarint(s.Seq)
	encSnapshot(e, s)
	if err := e.Err(); err != nil {
		return nil, err
	}
	return appendFrame(append([]byte(nil), snapMagic...), e.Bytes()), nil
}

// decodeSnapshot parses a snapshot file into the state it holds.
func decodeSnapshot(raw []byte) (State, error) {
	if !bytes.HasPrefix(raw, snapMagic) {
		return State{}, hintPreBinary(errors.New("store: snapshot lacks the rbaysnap magic"), raw)
	}
	body := raw[len(snapMagic):]
	if len(body) < 8 {
		return State{}, errors.New("store: snapshot truncated")
	}
	n := binary.LittleEndian.Uint32(body)
	sum := binary.LittleEndian.Uint32(body[4:])
	if int64(n) != int64(len(body)-8) {
		return State{}, fmt.Errorf("store: snapshot length %d does not match %d body bytes", n, len(body)-8)
	}
	payload := body[8:]
	if crc32.ChecksumIEEE(payload) != sum {
		return State{}, errors.New("store: snapshot checksum mismatch")
	}
	d := wire.NewDecoder(payload)
	kind, seq := d.Byte(), d.Uvarint()
	if d.Err() == nil && kind != kindSnapshot {
		return State{}, fmt.Errorf("store: snapshot frame has kind %d", kind)
	}
	s := decSnapshot(d)
	if err := bodyErr(d, kindSnapshot); err != nil {
		return State{}, fmt.Errorf("store: decode snapshot: %w", err)
	}
	s.Seq = seq
	return s, nil
}
