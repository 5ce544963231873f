package core

import (
	"encoding/hex"
	"reflect"
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
		{viewAdminReq{ReqID: 9, Op: "list", Arg: "", Origin: origin}, "4f09046c69737400003dd6c4408ec132242c903f87120b6e220273310161"},
		{viewAdminResp{ReqID: 9, Key: "k", QueryID: "q5", Cands: []Candidate{cand}, Shortfall: 1},
			"500900016b0002713502066e6f64652d3702733202683702733206000000000000e83f02"},
	} {
		b, err := wire.Marshal(c.v)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", c.v, err)
		}
		if got := hex.EncodeToString(b); got != c.hex {
			t.Errorf("%T encodes to\n  %s\nwant\n  %s", c.v, got, c.hex)
		}
	}
}
