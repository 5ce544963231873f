package scribe

import (
	"sync"

	"rbay/internal/ids"
	"rbay/internal/pastry"
	"rbay/internal/wire"
)

// Wire tags 40-52 belong to Scribe (see internal/wire for the tag map).
const (
	tagJoinMsg byte = 40 + iota
	tagChildAckMsg
	tagLeaveMsg
	tagMulticastMsg
	tagDowncastMsg
	tagAggUpdateMsg
	tagAggQueryMsg
	tagAggReplyMsg
	tagAnycastMsg
	tagAnycastDone
	tagMeanValue
	tagReplicaSyncMsg
	tagRootClaimMsg
)

var wireOnce sync.Once

// RegisterWire registers Scribe's message types with internal/wire, for
// tcpnet deployments. Each type's layout is its fields method below. Safe
// to call multiple times.
func RegisterWire() {
	pastry.RegisterWire()
	wireOnce.Do(func() {
		wire.Register(tagJoinMsg,
			func(e *wire.Encoder, v joinMsg) { v.Child.Fields(e.Coder()) },
			func(d *wire.Decoder) (v joinMsg) { v.Child.Fields(d.Coder()); return })
		wire.Register(tagChildAckMsg,
			func(e *wire.Encoder, v childAckMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v childAckMsg) { v.fields(d.Coder()); return })
		wire.Register(tagLeaveMsg,
			func(e *wire.Encoder, v leaveMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v leaveMsg) { v.fields(d.Coder()); return })
		wire.Register(tagMulticastMsg,
			func(e *wire.Encoder, v multicastMsg) { e.Coder().Value(&v.Payload) },
			func(d *wire.Decoder) (v multicastMsg) { d.Coder().Value(&v.Payload); return })
		wire.Register(tagDowncastMsg,
			func(e *wire.Encoder, v downcastMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v downcastMsg) { v.fields(d.Coder()); return })
		wire.Register(tagAggUpdateMsg,
			func(e *wire.Encoder, v aggUpdateMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v aggUpdateMsg) { v.fields(d.Coder()); return })
		wire.Register(tagAggQueryMsg,
			func(e *wire.Encoder, v aggQueryMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v aggQueryMsg) { v.fields(d.Coder()); return })
		wire.Register(tagAggReplyMsg,
			func(e *wire.Encoder, v aggReplyMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v aggReplyMsg) { v.fields(d.Coder()); return })
		wire.Register(tagAnycastMsg,
			func(e *wire.Encoder, v anycastMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v anycastMsg) { v.fields(d.Coder()); return })
		wire.Register(tagAnycastDone,
			func(e *wire.Encoder, v anycastDone) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v anycastDone) { v.fields(d.Coder()); return })
		wire.Register(tagReplicaSyncMsg,
			func(e *wire.Encoder, v replicaSyncMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v replicaSyncMsg) { v.fields(d.Coder()); return })
		wire.Register(tagRootClaimMsg,
			func(e *wire.Encoder, v rootClaimMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v rootClaimMsg) { v.fields(d.Coder()); return })
		wire.Register(tagMeanValue,
			func(e *wire.Encoder, v MeanValue) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v MeanValue) { v.fields(d.Coder()); return })
	})
}

func (v *childAckMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	v.Parent.Fields(c)
}

func (v *leaveMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	v.Child.Fields(c)
}

func (v *downcastMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	c.Value(&v.Payload)
}

func (v *aggUpdateMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	v.Child.Fields(c)
	c.Value(&v.Value)
}

func (v *aggQueryMsg) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	v.Origin.Fields(c)
}

func (v *aggReplyMsg) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	c.Value(&v.Value)
	c.Bool(&v.NoTree)
}

func (v *anycastMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	c.Uvarint(&v.ID)
	v.Origin.Fields(c)
	c.Value(&v.Payload)
	wire.List(c, &v.Visited, len(ids.ID{}), func(id *ids.ID, c *wire.Coder) { c.ID(id) })
	wire.List(c, &v.Stack, pastry.EntryMinLen, (*pastry.Entry).Fields)
	c.Int(&v.Visits)
	c.Int(&v.Hops)
}

func (v *anycastDone) fields(c *wire.Coder) {
	c.Uvarint(&v.ID)
	c.Value(&v.Payload)
	c.Bool(&v.Satisfied)
	c.Int(&v.Visits)
	c.Int(&v.Hops)
}

func (v *replicaSyncMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	c.String(&v.Scope)
	v.Root.Fields(c)
	c.Uvarint(&v.Epoch)
	c.Value(&v.Value)
}

func (v *rootClaimMsg) fields(c *wire.Coder) {
	c.ID(&v.Topic)
	c.String(&v.Scope)
	v.Root.Fields(c)
	c.Uvarint(&v.Epoch)
}

func (v *MeanValue) fields(c *wire.Coder) {
	c.Float64(&v.Sum)
	c.Varint(&v.Count)
}
