package pastry

import (
	"sync"

	"rbay/internal/ids"
	"rbay/internal/wire"
)

// Wire tags 16-30 belong to Pastry (see internal/wire for the tag map).
// 27-29 carried the RPC request/reply envelopes, deleted with their last
// caller; a peer built before that may still send them, so they are retired
// — never reused — and decode to an unknown-tag error.
const (
	tagMessage byte = 16 + iota
	tagDirectEnvelope
	tagJoinStart
	tagJoinPayload
	tagJoinRows
	tagJoinWelcome
	tagAnnounce
	tagProbe
	tagProbeAck
	tagRepairReq
	tagRepairResp

	tagEntry byte = 30
)

var wireOnce sync.Once

// RegisterWire registers explicit binary codecs for Pastry's message types
// with internal/wire, for deployments over internal/tcpnet. Safe to call
// multiple times.
func RegisterWire() {
	wireOnce.Do(func() {
		// Message is routed as *Message: each hop mutates Hops/Trace in
		// place before forwarding.
		wire.Register[*Message](tagMessage,
			func(e *wire.Encoder, m *Message) {
				e.String(m.App)
				e.ID(m.Key)
				e.String(m.Scope)
				EncodeEntry(e, m.Origin)
				e.Varint(int64(m.Hops))
				e.Bool(m.RecordTrace)
				encodeIDs(e, m.Trace)
				e.Value(m.Payload)
			},
			func(d *wire.Decoder) *Message {
				m := &Message{}
				m.App = d.String()
				m.Key = d.ID()
				m.Scope = d.String()
				m.Origin = DecodeEntry(d)
				m.Hops = int(d.Varint())
				m.RecordTrace = d.Bool()
				m.Trace = decodeIDs(d)
				m.Payload = d.Value()
				return m
			})
		wire.Register[directEnvelope](tagDirectEnvelope,
			func(e *wire.Encoder, v directEnvelope) {
				e.String(v.App)
				EncodeEntry(e, v.From)
				e.Value(v.Payload)
			},
			func(d *wire.Decoder) directEnvelope {
				return directEnvelope{App: d.String(), From: DecodeEntry(d), Payload: d.Value()}
			})
		wire.Register[joinStart](tagJoinStart,
			func(e *wire.Encoder, v joinStart) {
				e.String(v.Scope)
				EncodeEntry(e, v.Joiner)
			},
			func(d *wire.Decoder) joinStart {
				return joinStart{Scope: d.String(), Joiner: DecodeEntry(d)}
			})
		wire.Register[joinPayload](tagJoinPayload,
			func(e *wire.Encoder, v joinPayload) { EncodeEntry(e, v.Joiner) },
			func(d *wire.Decoder) joinPayload { return joinPayload{Joiner: DecodeEntry(d)} })
		wire.Register[joinRows](tagJoinRows,
			func(e *wire.Encoder, v joinRows) {
				e.String(v.Scope)
				EncodeEntries(e, v.Rows)
			},
			func(d *wire.Decoder) joinRows {
				return joinRows{Scope: d.String(), Rows: DecodeEntries(d)}
			})
		wire.Register[joinWelcome](tagJoinWelcome,
			func(e *wire.Encoder, v joinWelcome) {
				e.String(v.Scope)
				EncodeEntry(e, v.Host)
				EncodeEntries(e, v.Leaves)
			},
			func(d *wire.Decoder) joinWelcome {
				return joinWelcome{Scope: d.String(), Host: DecodeEntry(d), Leaves: DecodeEntries(d)}
			})
		wire.Register[announce](tagAnnounce,
			func(e *wire.Encoder, v announce) {
				e.String(v.Scope)
				EncodeEntry(e, v.Who)
			},
			func(d *wire.Decoder) announce {
				return announce{Scope: d.String(), Who: DecodeEntry(d)}
			})
		wire.Register[probe](tagProbe,
			func(e *wire.Encoder, v probe) { e.Uvarint(v.Seq) },
			func(d *wire.Decoder) probe { return probe{Seq: d.Uvarint()} })
		wire.Register[probeAck](tagProbeAck,
			func(e *wire.Encoder, v probeAck) {
				e.Uvarint(v.Seq)
				EncodeEntries(e, v.Leaves)
			},
			func(d *wire.Decoder) probeAck {
				return probeAck{Seq: d.Uvarint(), Leaves: DecodeEntries(d)}
			})
		wire.Register[repairReq](tagRepairReq,
			func(e *wire.Encoder, v repairReq) { e.String(v.Scope) },
			func(d *wire.Decoder) repairReq { return repairReq{Scope: d.String()} })
		wire.Register[repairResp](tagRepairResp,
			func(e *wire.Encoder, v repairResp) {
				e.String(v.Scope)
				EncodeEntries(e, v.Leaves)
			},
			func(d *wire.Decoder) repairResp {
				return repairResp{Scope: d.String(), Leaves: DecodeEntries(d)}
			})
		wire.Register[Entry](tagEntry, EncodeEntry, DecodeEntry)
	})
}

// EncodeEntry appends an Entry (scribe and core codecs use it for nested
// Entry fields).
func EncodeEntry(e *wire.Encoder, en Entry) {
	e.ID(en.ID)
	e.Addr(en.Addr)
}

// DecodeEntry reads an Entry.
func DecodeEntry(d *wire.Decoder) Entry {
	id := d.ID()
	return Entry{ID: id, Addr: d.Addr()}
}

// EncodeEntries appends a nil-preserving []Entry.
func EncodeEntries(e *wire.Encoder, ens []Entry) {
	if ens == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(ens)) + 1)
	for _, en := range ens {
		EncodeEntry(e, en)
	}
}

// encodedEntryMin is the minimum encoded size of one Entry: 16 ID bytes
// plus two empty length-prefixed address strings.
const encodedEntryMin = len(ids.ID{}) + 2

// DecodeEntries reads a nil-preserving []Entry.
func DecodeEntries(d *wire.Decoder) []Entry {
	u := d.Uvarint()
	if u == 0 {
		return nil
	}
	n := int(u - 1)
	if maxN := d.Remaining() / encodedEntryMin; n > maxN {
		n = maxN // corrupt count: pre-allocate what can exist; reads error out
	}
	out := make([]Entry, 0, n)
	for i := 0; i < int(u-1) && d.Err() == nil; i++ {
		out = append(out, DecodeEntry(d))
	}
	return out
}

func encodeIDs(e *wire.Encoder, list []ids.ID) {
	if list == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(list)) + 1)
	for _, id := range list {
		e.ID(id)
	}
}

func decodeIDs(d *wire.Decoder) []ids.ID {
	u := d.Uvarint()
	if u == 0 {
		return nil
	}
	n := int(u - 1)
	if maxN := d.Remaining() / len(ids.ID{}); n > maxN {
		n = maxN
	}
	out := make([]ids.ID, 0, n)
	for i := 0; i < int(u-1) && d.Err() == nil; i++ {
		out = append(out, d.ID())
	}
	return out
}
