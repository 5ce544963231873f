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

// RegisterWire registers Pastry's message types with internal/wire, for
// deployments over internal/tcpnet. Each type's layout is its fields
// method below. Safe to call multiple times.
func RegisterWire() {
	wireOnce.Do(func() {
		// Message is routed as *Message: each hop mutates Hops/Trace in
		// place before forwarding.
		wire.Register(tagMessage,
			func(e *wire.Encoder, m *Message) { m.fields(e.Coder()) },
			func(d *wire.Decoder) *Message { m := new(Message); m.fields(d.Coder()); return m })
		wire.Register(tagDirectEnvelope,
			func(e *wire.Encoder, v directEnvelope) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v directEnvelope) { v.fields(d.Coder()); return })
		wire.Register(tagJoinStart,
			func(e *wire.Encoder, v joinStart) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v joinStart) { v.fields(d.Coder()); return })
		wire.Register(tagJoinPayload,
			func(e *wire.Encoder, v joinPayload) { v.Joiner.Fields(e.Coder()) },
			func(d *wire.Decoder) (v joinPayload) { v.Joiner.Fields(d.Coder()); return })
		wire.Register(tagJoinRows,
			func(e *wire.Encoder, v joinRows) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v joinRows) { v.fields(d.Coder()); return })
		wire.Register(tagJoinWelcome,
			func(e *wire.Encoder, v joinWelcome) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v joinWelcome) { v.fields(d.Coder()); return })
		wire.Register(tagAnnounce,
			func(e *wire.Encoder, v announce) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v announce) { v.fields(d.Coder()); return })
		wire.Register(tagProbe,
			func(e *wire.Encoder, v probe) { e.Coder().Uvarint(&v.Seq) },
			func(d *wire.Decoder) (v probe) { d.Coder().Uvarint(&v.Seq); return })
		wire.Register(tagProbeAck,
			func(e *wire.Encoder, v probeAck) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v probeAck) { v.fields(d.Coder()); return })
		wire.Register(tagRepairReq,
			func(e *wire.Encoder, v repairReq) { e.Coder().String(&v.Scope) },
			func(d *wire.Decoder) (v repairReq) { d.Coder().String(&v.Scope); return })
		wire.Register(tagRepairResp,
			func(e *wire.Encoder, v repairResp) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v repairResp) { v.fields(d.Coder()); return })
		wire.Register(tagEntry,
			func(e *wire.Encoder, v Entry) { v.Fields(e.Coder()) },
			func(d *wire.Decoder) (v Entry) { v.Fields(d.Coder()); return })
	})
}

// Fields is an Entry's layout; scribe's and core's messages embed it.
func (en *Entry) Fields(c *wire.Coder) {
	c.ID(&en.ID)
	c.Addr(&en.Addr)
}

// EntryMinLen is the fewest bytes an Entry encodes to: 16 ID bytes plus
// two empty length-prefixed address strings. Another package with an
// []Entry field calls wire.List with it itself: a helper from here would
// be inlined there, and a generic call inlined across a package boundary
// loses its escape analysis, moving every encoded message to the heap.
const EntryMinLen = len(ids.ID{}) + 2

// entries walks a nil-preserving []Entry.
func entries(c *wire.Coder, s *[]Entry) { wire.List(c, s, EntryMinLen, (*Entry).Fields) }

func (m *Message) fields(c *wire.Coder) {
	c.String(&m.App)
	c.ID(&m.Key)
	c.String(&m.Scope)
	m.Origin.Fields(c)
	c.Int(&m.Hops)
	c.Bool(&m.RecordTrace)
	wire.List(c, &m.Trace, len(ids.ID{}), func(id *ids.ID, c *wire.Coder) { c.ID(id) })
	c.Value(&m.Payload)
}

func (v *directEnvelope) fields(c *wire.Coder) {
	c.String(&v.App)
	v.From.Fields(c)
	c.Value(&v.Payload)
}

func (v *joinStart) fields(c *wire.Coder) {
	c.String(&v.Scope)
	v.Joiner.Fields(c)
}

func (v *joinRows) fields(c *wire.Coder) {
	c.String(&v.Scope)
	entries(c, &v.Rows)
}

func (v *joinWelcome) fields(c *wire.Coder) {
	c.String(&v.Scope)
	v.Host.Fields(c)
	entries(c, &v.Leaves)
}

func (v *announce) fields(c *wire.Coder) {
	c.String(&v.Scope)
	v.Who.Fields(c)
}

func (v *probeAck) fields(c *wire.Coder) {
	c.Uvarint(&v.Seq)
	entries(c, &v.Leaves)
}

func (v *repairResp) fields(c *wire.Coder) {
	c.String(&v.Scope)
	entries(c, &v.Leaves)
}
