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
// and one registered kind per record operation. This file is the only
// place that knows the on-disk bytes: the kind table, the value tags and
// the snapshot layout. A data dir holds nothing else; bytes that pass
// their checksum but do not decode make Open fail rather than be
// dropped (docs/RECOVERY.md).
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

// maxRecordLen bounds one WAL record's payload; a longer length prefix
// means the tail is garbage, not a record.
const maxRecordLen = 1 << 24

// snapMagic prefixes the snapshot file, whose remainder is one
// kindSnapshot frame.
var snapMagic = []byte("rbaysnap\x01")

var (
	recCodec  = wire.NewCodec[record]()
	snapCodec = wire.NewCodec[State]()
)

func init() {
	recCodec.Register(kindSet, "set",
		func(e *wire.Encoder, r record) { e.String(r.Attr); encValue(e, r.Val) },
		func(d *wire.Decoder) record { return record{Kind: kindSet, Attr: d.String(), Val: decValue(d)} })
	recCodec.Register(kindSetBatch, "setb",
		func(e *wire.Encoder, r record) {
			e.Uvarint(uint64(len(r.Batch)))
			for _, kv := range r.Batch {
				e.String(kv.Name)
				encValue(e, kv.Value)
			}
		},
		func(d *wire.Decoder) record {
			r := record{Kind: kindSetBatch}
			if n := d.Count(2); n > 0 {
				r.Batch = make([]BatchSet, n)
				for i := range r.Batch {
					r.Batch[i] = BatchSet{Name: d.String(), Value: decValue(d)}
				}
			}
			return r
		})
	recCodec.Register(kindDelete, "del",
		func(e *wire.Encoder, r record) { e.String(r.Attr) },
		func(d *wire.Decoder) record { return record{Kind: kindDelete, Attr: d.String()} })
	recCodec.Register(kindAttach, "attach",
		func(e *wire.Encoder, r record) { e.String(r.Attr); e.String(r.Script) },
		func(d *wire.Decoder) record { return record{Kind: kindAttach, Attr: d.String(), Script: d.String()} })
	recCodec.Register(kindReserve, "reserve",
		func(e *wire.Encoder, r record) { e.String(r.Query); e.Varint(r.Exp) },
		func(d *wire.Decoder) record { return record{Kind: kindReserve, Query: d.String(), Exp: d.Varint()} })
	recCodec.Register(kindCommit, "commit",
		func(e *wire.Encoder, r record) { e.String(r.Query) },
		func(d *wire.Decoder) record { return record{Kind: kindCommit, Query: d.String()} })
	recCodec.Register(kindRelease, "release",
		func(e *wire.Encoder, r record) { e.String(r.Query) },
		func(d *wire.Decoder) record { return record{Kind: kindRelease, Query: d.String()} })
	recCodec.Register(kindOpUpsert, "op",
		func(e *wire.Encoder, r record) {
			if r.OpRec == nil {
				e.Fail(errors.New("store: op upsert record without op"))
				return
			}
			encStoredOp(e, *r.OpRec)
		},
		func(d *wire.Decoder) record {
			op := decStoredOp(d)
			return record{Kind: kindOpUpsert, OpRec: &op}
		})
	recCodec.Register(kindOpDelete, "opdel",
		func(e *wire.Encoder, r record) { e.String(r.Query) },
		func(d *wire.Decoder) record { return record{Kind: kindOpDelete, Query: d.String()} })

	snapCodec.Register(kindSnapshot, "snapshot", encSnapshot, decSnapshot)
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

func encStoredOp(e *wire.Encoder, op StoredOp) {
	e.String(op.ID)
	e.String(op.Kind)
	e.String(op.State)
	e.String(op.IdemKey)
	e.String(op.Tenant)
	e.String(op.Query)
	e.String(op.Payload)
	e.String(op.Caller)
	e.String(op.Mode)
	e.String(op.FromOp)
	e.String(op.QueryID)
	e.Uvarint(uint64(len(op.Candidates)))
	for _, c := range op.Candidates {
		e.String(c.NodeID)
		e.String(c.Site)
		e.String(c.Host)
	}
	e.String(op.Updates)
	e.String(op.Error)
	e.Varint(int64(op.Shortfall))
	e.Varint(op.CreatedNanos)
	e.Varint(op.UpdatedNanos)
}

func decStoredOp(d *wire.Decoder) StoredOp {
	var op StoredOp
	op.ID = d.String()
	op.Kind = d.String()
	op.State = d.String()
	op.IdemKey = d.String()
	op.Tenant = d.String()
	op.Query = d.String()
	op.Payload = d.String()
	op.Caller = d.String()
	op.Mode = d.String()
	op.FromOp = d.String()
	op.QueryID = d.String()
	if n := d.Count(3); n > 0 {
		op.Candidates = make([]OpCandidate, n)
		for i := range op.Candidates {
			op.Candidates[i] = OpCandidate{NodeID: d.String(), Site: d.String(), Host: d.String()}
		}
	}
	op.Updates = d.String()
	op.Error = d.String()
	op.Shortfall = int(d.Varint())
	op.CreatedNanos = d.Varint()
	op.UpdatedNanos = d.Varint()
	return op
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
		encStoredOp(e, op)
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
			op := decStoredOp(d)
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
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	recCodec.Append(e, r.Kind, r.Seq, r)
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
		_, seq, r, derr := recCodec.Decode(body)
		if derr != nil {
			err = fmt.Errorf("store: wal frame at offset %d, kind byte %#02x, is intact but does not decode: %w", off, body[0], derr)
			return recs, off, hintPreBinary(err, body)
		}
		r.Seq = seq
		recs = append(recs, r)
		off += 8 + int(n)
	}
	return recs, off, nil
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
	snapCodec.Append(e, kindSnapshot, s.Seq, s)
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
	_, seq, s, err := snapCodec.Decode(payload)
	if err != nil {
		return State{}, fmt.Errorf("store: decode snapshot: %w", err)
	}
	s.Seq = seq
	return s, nil
}
