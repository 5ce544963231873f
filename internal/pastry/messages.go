package pastry

import (
	"rbay/internal/ids"
)

// GlobalScope is the scope name of the federation-wide routing structure.
// Any other scope is a site name, routed only among that site's nodes
// (administrative isolation, paper §III-E).
const GlobalScope = ""

// Message is the routed envelope. It travels hop by hop toward the node
// whose NodeId is numerically closest to Key within Scope, where it is
// delivered to the application registered under App.
type Message struct {
	App    string
	Key    ids.ID
	Scope  string
	Origin Entry
	Hops   int

	// RecordTrace asks every hop to append its NodeId to Trace; the
	// scalability experiments (paper Fig. 8a/8b) use this to count hops and
	// attribute forwarding load.
	RecordTrace bool
	Trace       []ids.ID

	Payload any
}

// directEnvelope carries an application-level message point to point,
// outside DHT routing (Scribe parents and children, query replies).
type directEnvelope struct {
	App     string
	From    Entry
	Payload any
}

// joinStart asks the seed node to initiate routing a join request on the
// joiner's behalf.
type joinStart struct {
	Scope  string
	Joiner Entry
}

// joinPayload rides the routed join Message.
type joinPayload struct {
	Joiner Entry
}

// joinRows ships routing-table rows from a node on the join path to the
// joiner.
type joinRows struct {
	Scope string
	Rows  []Entry
}

// joinWelcome is sent by the numerically closest node: its own entry plus
// its leaf set, from which the joiner builds its own leaf set.
type joinWelcome struct {
	Scope  string
	Host   Entry
	Leaves []Entry
}

// announce tells an existing member about the (newly joined) node so it can
// be inserted into routing structures.
type announce struct {
	Scope string
	Who   Entry
}

// probe and probeAck implement liveness checks between leaf-set neighbors.
type probe struct {
	Seq uint64
}

type probeAck struct {
	Seq uint64
	// Leaves piggybacks the responder's global leaf set. This is the
	// overlay's only steady-state membership gossip: after a healed
	// partition both sides have forgotten each other's ring neighbors, and
	// with no application traffic nothing would ever reintroduce them.
	// Probe acks flow continuously, so surviving cross-partition links
	// (typically routing-table entries) re-seed the leaf sets.
	Leaves []Entry
}

// repairReq asks a surviving leaf neighbor for its leaf set after a
// failure; repairResp carries it back.
type repairReq struct {
	Scope string
}

type repairResp struct {
	Scope  string
	Leaves []Entry
}
