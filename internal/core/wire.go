package core

import (
	"sync"

	"rbay/internal/naming"
	"rbay/internal/scribe"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// Wire tags 64-81 belong to the RBAY core (see internal/wire for the tag
// map). 79-80 carried the remote view-admin RPC, deleted with rbayctl's
// overlay mode; a peer built before that may still send them, so they are
// retired — never reused — and decode to an unknown-tag error.
const (
	tagQueryVisit byte = 64 + iota
	tagSiteQueryReq
	tagSiteQueryResp
	tagCommitReq
	tagReleaseReq
	tagAdminCmd
	tagCandidate
	tagTreeStats
	tagPred
	tagCandidates
	tagViewRegMsg
	tagViewSiteReg
	tagViewUpdateMsg
	tagViewReserveReq
	tagViewReserveResp
	_        // 79: retired, never reuse
	_        // 80: retired, never reuse
	tagOpAck // 81
)

var wireOnce sync.Once

// RegisterWire registers the RBAY core's message types with
// internal/wire, for tcpnet deployments. Each type's layout is its fields
// method below. Safe to call multiple times.
func RegisterWire() {
	scribe.RegisterWire()
	wireOnce.Do(func() {
		wire.Register(tagQueryVisit,
			func(e *wire.Encoder, v queryVisit) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v queryVisit) { v.fields(d.Coder()); return })
		wire.Register(tagSiteQueryReq,
			func(e *wire.Encoder, v siteQueryReq) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v siteQueryReq) { v.fields(d.Coder()); return })
		wire.Register(tagSiteQueryResp,
			func(e *wire.Encoder, v siteQueryResp) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v siteQueryResp) { v.fields(d.Coder()); return })
		wire.Register(tagCommitReq,
			func(e *wire.Encoder, v commitReq) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v commitReq) { v.fields(d.Coder()); return })
		wire.Register(tagReleaseReq,
			func(e *wire.Encoder, v releaseReq) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v releaseReq) { v.fields(d.Coder()); return })
		wire.Register(tagOpAck,
			func(e *wire.Encoder, v opAck) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v opAck) { v.fields(d.Coder()); return })
		wire.Register(tagAdminCmd,
			func(e *wire.Encoder, v adminCmd) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v adminCmd) { v.fields(d.Coder()); return })
		wire.Register(tagCandidate,
			func(e *wire.Encoder, v Candidate) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v Candidate) { v.fields(d.Coder()); return })
		wire.Register(tagTreeStats,
			func(e *wire.Encoder, v TreeStats) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v TreeStats) { v.fields(d.Coder()); return })
		wire.Register(tagPred,
			func(e *wire.Encoder, v naming.Pred) { predFields(&v, e.Coder()) },
			func(d *wire.Decoder) (v naming.Pred) { predFields(&v, d.Coder()); return })
		wire.Register(tagCandidates,
			func(e *wire.Encoder, v []Candidate) { candidates(e.Coder(), &v) },
			func(d *wire.Decoder) (v []Candidate) { candidates(d.Coder(), &v); return })
		wire.Register(tagViewRegMsg,
			func(e *wire.Encoder, v viewRegMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v viewRegMsg) { v.fields(d.Coder()); return })
		wire.Register(tagViewSiteReg,
			func(e *wire.Encoder, v viewSiteReg) { v.Reg.fields(e.Coder()) },
			func(d *wire.Decoder) (v viewSiteReg) { v.Reg.fields(d.Coder()); return })
		wire.Register(tagViewUpdateMsg,
			func(e *wire.Encoder, v viewUpdateMsg) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v viewUpdateMsg) { v.fields(d.Coder()); return })
		wire.Register(tagViewReserveReq,
			func(e *wire.Encoder, v viewReserveReq) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v viewReserveReq) { v.fields(d.Coder()); return })
		wire.Register(tagViewReserveResp,
			func(e *wire.Encoder, v viewReserveResp) { v.fields(e.Coder()) },
			func(d *wire.Decoder) (v viewReserveResp) { v.fields(d.Coder()); return })
	})
}

// The fewest bytes one list element encodes to: every string, varint and
// bool at least one byte, a nil value its tag byte.
const (
	candidateMinLen = 5 // NodeID, Addr (2), Site, SortKey
	predMinLen      = 3
	probeMinLen     = 4
	addrMinLen      = 2
)

func candidates(c *wire.Coder, s *[]Candidate) {
	wire.List(c, s, candidateMinLen, (*Candidate).fields)
}

func preds(c *wire.Coder, s *[]naming.Pred) { wire.List(c, s, predMinLen, predFields) }

func addrs(c *wire.Coder, s *[]transport.Addr) {
	wire.List(c, s, addrMinLen, func(a *transport.Addr, c *wire.Coder) { c.Addr(a) })
}

func (v *queryVisit) fields(c *wire.Coder) {
	c.String(&v.QueryID)
	c.Int(&v.K)
	preds(c, &v.Preds)
	c.String(&v.OrderBy)
	c.String(&v.TreeAttr)
	c.String(&v.Caller)
	c.Value(&v.Payload)
	candidates(c, &v.Slots)
	c.Int(&v.Conflicts)
	addrs(c, &v.Exclude)
}

func (v *siteQueryReq) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	c.String(&v.QueryID)
	c.Int(&v.K)
	preds(c, &v.Preds)
	c.String(&v.OrderBy)
	c.String(&v.Caller)
	c.Value(&v.Payload)
	v.Origin.Fields(c)
	addrs(c, &v.Exclude)
}

func (v *siteQueryResp) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	c.String(&v.QueryID)
	c.String(&v.Site)
	candidates(c, &v.Candidates)
	c.Int(&v.Conflicts)
	c.Varint(&v.TreeSize)
	c.String(&v.Err)
	wire.List(c, &v.Probes, probeMinLen, (*treeProbe).fields)
	c.Varint(&v.AnycastNanos)
	c.Int(&v.Visits)
	c.Int(&v.Hops)
}

func (p *treeProbe) fields(c *wire.Coder) {
	c.String(&p.Tree)
	c.Varint(&p.Size)
	c.Bool(&p.Missing)
	c.Varint(&p.Nanos)
}

func (v *commitReq) fields(c *wire.Coder) {
	c.String(&v.QueryID)
	c.Uvarint(&v.ReqID)
}

func (v *releaseReq) fields(c *wire.Coder) {
	c.String(&v.QueryID)
	c.Uvarint(&v.ReqID)
}

func (v *opAck) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	c.Bool(&v.Matched)
}

func (v *adminCmd) fields(c *wire.Coder) {
	c.String(&v.Attr)
	c.String(&v.From)
	c.Value(&v.Payload)
	c.Varint(&v.SentAtNanos)
}

func (v *Candidate) fields(c *wire.Coder) {
	c.String(&v.NodeID)
	c.Addr(&v.Addr)
	c.String(&v.Site)
	c.Value(&v.SortKey)
}

func (v *TreeStats) fields(c *wire.Coder) {
	c.Varint(&v.Count)
	c.Float64(&v.Sum)
}

// predFields is naming.Pred's layout (a method cannot live outside its
// package).
func predFields(p *naming.Pred, c *wire.Coder) {
	c.String(&p.Attr)
	c.String((*string)(&p.Op))
	c.Value(&p.Value)
}

func (v *viewRegMsg) fields(c *wire.Coder) {
	c.String(&v.Key)
	v.Owner.Fields(c)
	preds(c, &v.Preds)
	c.String(&v.OrderBy)
	c.String(&v.TreeAttr)
	c.Bool(&v.Drop)
}

func (v *viewUpdateMsg) fields(c *wire.Coder) {
	c.String(&v.Key)
	v.Member.Fields(c)
	c.Bool(&v.Match)
	v.Cand.fields(c)
}

func (v *viewReserveReq) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	c.String(&v.QueryID)
	c.String(&v.Key)
	preds(c, &v.Preds)
	c.String(&v.OrderBy)
	c.String(&v.TreeAttr)
	c.String(&v.Caller)
	c.Value(&v.Payload)
	v.Origin.Fields(c)
}

func (v *viewReserveResp) fields(c *wire.Coder) {
	c.Uvarint(&v.ReqID)
	c.String(&v.QueryID)
	c.Bool(&v.OK)
	c.Bool(&v.Conflict)
	v.Cand.fields(c)
}
