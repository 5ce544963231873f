package core

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"rbay/internal/naming"
	"rbay/internal/pastry"
	"rbay/internal/transport"
	"rbay/internal/wire"
)

// TestWireRoundTrip checks encode/decode equality for every registered
// core message type, including any-typed sort keys, predicate values, and
// nil-vs-empty candidate slices.
func TestWireRoundTrip(t *testing.T) {
	RegisterWire()
	origin := pastry.EntryFor(transport.Addr{Site: "s1", Host: "a"})
	cand := Candidate{
		NodeID:  "node-7",
		Addr:    transport.Addr{Site: "s2", Host: "h7"},
		Site:    "s2",
		SortKey: 0.75,
	}
	preds := []naming.Pred{
		{Attr: "CPU_utilization", Op: naming.OpLt, Value: 0.1},
		{Attr: "OS", Op: naming.OpEq, Value: "linux"},
	}
	cases := []any{
		queryVisit{},
		queryVisit{
			QueryID:   "q1",
			K:         2,
			Preds:     preds,
			OrderBy:   "CPU_free",
			TreeAttr:  "CPU_free",
			Caller:    "alice",
			Payload:   map[string]any{"password": "x"},
			Slots:     []Candidate{cand, {}},
			Conflicts: 3,
			Exclude:   []transport.Addr{{Site: "s1", Host: "h9"}},
		},
		queryVisit{Slots: []Candidate{}, Preds: []naming.Pred{}},
		siteQueryReq{},
		siteQueryReq{ReqID: 5, QueryID: "q2", K: 1, Preds: preds, OrderBy: "mem", Caller: "bob", Payload: nil, Origin: origin,
			Exclude: []transport.Addr{{Site: "s2", Host: "h1"}, {Site: "s2", Host: "h2"}}},
		siteQueryResp{},
		siteQueryResp{
			ReqID:        5,
			QueryID:      "q2",
			Site:         "s2",
			Candidates:   []Candidate{cand},
			Conflicts:    1,
			TreeSize:     999,
			Err:          "partial",
			Probes:       []treeProbe{{Tree: "CPU_free", Size: 10, Missing: false, Nanos: 1234}, {Tree: "mem", Missing: true}},
			AnycastNanos: 5678,
			Visits:       4,
			Hops:         9,
		},
		siteQueryResp{Probes: []treeProbe{}},
		commitReq{QueryID: "q3"},
		releaseReq{},
		adminCmd{Attr: "OS", From: "admin", Payload: []any{"patch", 1}, SentAtNanos: 42},
		adminCmd{},
		cand,
		Candidate{},
		TreeStats{Count: 3, Sum: 1.5},
		naming.Pred{Attr: "x", Op: naming.OpGe, Value: false},
		[]Candidate{cand, {}},
		[]Candidate{},
	}
	for _, v := range cases {
		got, err := wire.Roundtrip(v)
		if err != nil {
			t.Fatalf("Roundtrip(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

// TestWireBytesPinned holds every core message that carries a ReqID to the
// bytes it encoded to before the IDs moved to pastry's shared table.
func TestWireBytesPinned(t *testing.T) {
	RegisterWire()
	origin := pastry.EntryFor(transport.Addr{Site: "s1", Host: "a"})
	cand := Candidate{NodeID: "node-7", Addr: transport.Addr{Site: "s2", Host: "h7"}, Site: "s2", SortKey: 0.75}
	preds := []naming.Pred{{Attr: "CPU_utilization", Op: naming.OpLt, Value: 0.1}}
	for _, c := range []struct {
		v   any
		hex string
	}{
		{siteQueryReq{ReqID: 5, QueryID: "q2", K: 1, Preds: preds, OrderBy: "mem", Caller: "bob", Origin: origin,
			Exclude: []transport.Addr{{Site: "s2", Host: "h1"}}},
			"410502713202020f4350555f7574696c697a6174696f6e013c069a9999999999b93f036d656d03626f62003dd6c4408ec132242c903f87120b6e22027331016102027332026831"},
		{siteQueryResp{ReqID: 5, QueryID: "q2", Site: "s2", Candidates: []Candidate{cand}, Conflicts: 1, TreeSize: 999,
			Err: "partial", Probes: []treeProbe{{Tree: "CPU_free", Size: 10, Nanos: 1234}}, AnycastNanos: 5678, Visits: 4, Hops: 9},
			"420502713202733202066e6f64652d3702733202683702733206000000000000e83f02ce0f077061727469616c02084350555f667265651400a413dc580812"},
		{commitReq{QueryID: "q3", ReqID: 6}, "4302713306"},
		{releaseReq{QueryID: "q3", ReqID: 7}, "4402713307"},
		{opAck{ReqID: 6, Matched: true}, "510601"},
		{viewReserveReq{ReqID: 8, QueryID: "q4", Key: "k", Preds: preds, OrderBy: "mem", TreeAttr: "CPU_free", Caller: "bob", Origin: origin},
			"4d08027134016b020f4350555f7574696c697a6174696f6e013c069a9999999999b93f036d656d084350555f6672656503626f62003dd6c4408ec132242c903f87120b6e220273310161"},
		{viewReserveResp{ReqID: 8, QueryID: "q4", OK: true, Cand: cand}, "4e080271340100066e6f64652d3702733202683702733206000000000000e83f"},
		{queryVisit{QueryID: "q1", K: 2, Preds: preds, OrderBy: "CPU_free", TreeAttr: "CPU_free", Caller: "alice",
			Payload: map[string]any{"password": "x"}, Slots: []Candidate{cand, {}}, Conflicts: 3,
			Exclude: []transport.Addr{{Site: "s1", Host: "h9"}}}, "4002713104020f4350555f7574696c697a6174696f6e013c069a9999999999b93f084350555f66726565084350555f6672656505616c6963650b020870617373776f726407017803066e6f64652d3702733202683702733206000000000000e83f00000000000602027331026839"},
		{queryVisit{Slots: []Candidate{}}, "4000000000000000010000"},
		{adminCmd{Attr: "OS", From: "admin", Payload: []any{"patch", 1}, SentAtNanos: 42}, "45024f530561646d696e0a0307057061746368030254"},
		{cand, "46066e6f64652d3702733202683702733206000000000000e83f"},
		{Candidate{}, "460000000000"},
		{TreeStats{Count: 3, Sum: 1.5}, "4706000000000000f83f"},
		{naming.Pred{Attr: "x", Op: naming.OpGe, Value: false}, "480178023e3d01"},
		{[]Candidate{cand, {}}, "4903066e6f64652d3702733202683702733206000000000000e83f0000000000"},
		{[]Candidate(nil), "4900"},
		{viewRegMsg{Key: "k", Owner: origin, Preds: preds, OrderBy: "mem", TreeAttr: "CPU_free", Drop: true}, "4a016b3dd6c4408ec132242c903f87120b6e220273310161020f4350555f7574696c697a6174696f6e013c069a9999999999b93f036d656d084350555f6672656501"},
		{viewSiteReg{Reg: viewRegMsg{Key: "k", Owner: origin}}, "4b016b3dd6c4408ec132242c903f87120b6e22027331016100000000"},
		{viewUpdateMsg{Key: "k", Member: origin, Match: true, Cand: cand}, "4c016b3dd6c4408ec132242c903f87120b6e22027331016101066e6f64652d3702733202683702733206000000000000e83f"},
	} {
		b, err := wire.Marshal(c.v)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", c.v, err)
		}
		if got := hex.EncodeToString(b); got != c.hex {
			t.Errorf("%T encodes to\n  %s\nwant\n  %s", c.v, got, c.hex)
		}
		if n := encodeAllocs(c.v); n != 0 {
			t.Errorf("encoding %T allocates %v times, want 0", c.v, n)
		}
	}
}

// retiredPayloads is what a peer built before the remote view-admin RPC
// was deleted sends under the retired tags 79 and 80: a request, and
// replies with candidates and with views.
var retiredPayloads = []string{
	"4f09046c69737400003dd6c4408ec132242c903f87120b6e220273310161",
	"500900016b0002713502066e6f64652d3702733202683702733206000000000000e83f02",
	"500a00016b03016b06aab4aed8c7bfce972f80a8a69ccebfce972f80cab5ee0104ac020201017a0000000000000000000000",
}

// TestRetiredTagsDecodeToError: tags 79 and 80 stay retired. An old
// peer's view-admin message is refused as unknown, not reinterpreted.
func TestRetiredTagsDecodeToError(t *testing.T) {
	RegisterWire()
	for _, h := range retiredPayloads {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := wire.Unmarshal(b); err == nil || !strings.Contains(err.Error(), "unknown value tag") {
			t.Errorf("retired tag %d decoded to %#v, %v", b[0], v, err)
		}
	}
}

// encodeAllocs is what encoding v allocates once the encoder's buffer has
// grown. The encoder is the test's own, not the pool's: under -race,
// sync.Pool drops Puts at random and each drop would count as two
// allocations.
func encodeAllocs(v any) float64 {
	var e wire.Encoder
	return testing.AllocsPerRun(20, func() {
		e.Reset()
		e.Value(v)
	})
}
