package pastry

import (
	"errors"
	"testing"
	"time"

	"rbay/internal/ids"
	"rbay/internal/metrics"
	"rbay/internal/simnet"
	"rbay/internal/transport"
)

// echoReq/echoResp are what a layer above pastry sends around Await and
// Settle: a request carrying the minted ID, and the reply echoing it.
type echoReq struct {
	ID   uint64
	Body string
}

type echoResp struct {
	ID   uint64
	Body string
}

// echoApp answers routed and direct echoReqs with a direct echoResp and
// settles the echoResps it receives.
type echoApp struct{}

func (echoApp) Deliver(n *Node, m *Message) {
	req := m.Payload.(echoReq)
	_ = n.SendApp(m.Origin.Addr, "echo", echoResp{ID: req.ID, Body: n.ID().Short() + " says hi to " + req.Body})
}
func (echoApp) Forward(*Node, *Message, Entry) bool { return true }
func (echoApp) Direct(n *Node, from Entry, payload any) {
	switch p := payload.(type) {
	case echoReq:
		_ = n.SendApp(from.Addr, "echo", echoResp{ID: p.ID, Body: p.Body})
	case echoResp:
		n.Settle(p.ID, p, nil)
	}
}

// TestRoutedRequestReplyAndTimeout is the request/reply round trip every
// layer builds from Route/SendApp and Await/Settle: a routed request is
// delivered at the numerically closest node, its direct reply settles the
// waiting call, and a request to a crashed node ends in ErrTimeout.
func TestRoutedRequestReplyAndTimeout(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	nodes, err := Bootstrap(net, siteAddrs(20, "alpha"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.Register("echo", echoApp{})
	}
	var got string
	var gotErr error
	key := ids.HashOf("some-key")
	id := nodes[0].Await(time.Second, echoResp{}, func(reply any, err error) {
		gotErr = err
		if err == nil {
			got = reply.(echoResp).Body
		}
	})
	if err := nodes[0].Route("echo", key, echoReq{ID: id, Body: "bob"}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	wantPrefix := closestOf(nodes, key).Short()
	if got == "" || got[:8] != wantPrefix {
		t.Fatalf("reply %q should come from closest node %s", got, wantPrefix)
	}

	// A direct request to a crashed node times out. The simulated send
	// reports the closed endpoint at once; a real socket would not, so the
	// error is dropped here and the timer decides.
	victim := nodes[5]
	victimAddr := victim.Addr()
	victim.Close()
	gotErr = nil
	id = nodes[0].Await(time.Second, echoResp{}, func(_ any, err error) { gotErr = err })
	_ = nodes[0].SendApp(victimAddr, "echo", echoReq{ID: id, Body: "x"})
	net.RunFor(2 * time.Second)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("request to crashed node: err = %v, want ErrTimeout", gotErr)
	}
}

// TestAwaitFiresExactlyOnce walks the orders a reply, the timer, a failed
// send and a node crash can arrive in: the callback runs once in each, and
// whatever comes second finds nothing waiting.
func TestAwaitFiresExactlyOnce(t *testing.T) {
	errSend := errors.New("send failed")
	cases := []struct {
		name string
		// drive gets the awaiting node, the minted ID and the simulation.
		drive   func(n *Node, id uint64, net *simnet.Network) (settled []bool)
		want    []bool // what each Settle in drive reported
		wantErr error
	}{
		{"reply then timer", func(n *Node, id uint64, net *simnet.Network) []bool {
			ok := n.Settle(id, echoResp{ID: id}, nil)
			net.RunFor(2 * time.Second)
			return []bool{ok}
		}, []bool{true}, nil},
		{"timer then late reply", func(n *Node, id uint64, net *simnet.Network) []bool {
			net.RunFor(2 * time.Second)
			return []bool{n.Settle(id, echoResp{ID: id}, nil)}
		}, []bool{false}, ErrTimeout},
		{"send failure then timer and reply", func(n *Node, id uint64, net *simnet.Network) []bool {
			ok := n.Settle(id, nil, errSend)
			net.RunFor(2 * time.Second)
			return []bool{ok, n.Settle(id, echoResp{ID: id}, nil)}
		}, []bool{true, false}, errSend},
		{"node closed", func(n *Node, id uint64, net *simnet.Network) []bool {
			// The crash path: the request cannot leave, the caller reports
			// that, and the closed endpoint's timer stays silent.
			_ = n.Close()
			err := n.SendApp(transport.Addr{Site: "s", Host: "b"}, "echo", echoReq{ID: id})
			ok := n.Settle(id, nil, err)
			net.RunFor(2 * time.Second)
			return []bool{ok}
		}, []bool{true}, ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := simnet.New(transport.ConstantLatency(time.Millisecond))
			n, err := NewNode(net, transport.Addr{Site: "s", Host: "a"}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			var gotErr error
			id := n.Await(time.Second, echoResp{}, func(_ any, err error) {
				fired++
				gotErr = err
			})
			settled := tc.drive(n, id, net)
			if fired != 1 {
				t.Errorf("callback fired %d times, want 1", fired)
			}
			if !errors.Is(gotErr, tc.wantErr) {
				t.Errorf("callback err = %v, want %v", gotErr, tc.wantErr)
			}
			for i, ok := range settled {
				if ok != tc.want[i] {
					t.Errorf("Settle #%d reported %v, want %v", i+1, ok, tc.want[i])
				}
			}
			if len(n.pending) != 0 {
				t.Errorf("%d calls left in the table", len(n.pending))
			}
		})
	}
}

// TestAwaitWithoutTimerWaitsForItsCaller covers the ack-group shape: no
// timeout means no timer, and the entry stays until the caller settles it.
func TestAwaitWithoutTimerWaitsForItsCaller(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	n, err := NewNode(net, transport.Addr{Site: "s", Host: "a"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	id := n.Await(0, echoResp{}, func(_ any, err error) { gotErr = err })
	if net.Pending() != 0 {
		t.Fatalf("Await(0) armed %d timers", net.Pending())
	}
	net.RunFor(time.Hour)
	if gotErr != nil || len(n.pending) != 1 {
		t.Fatalf("untimed call settled on its own: err=%v pending=%d", gotErr, len(n.pending))
	}
	if !n.Settle(id, nil, ErrTimeout) || !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("caller's deadline did not settle the call: err=%v", gotErr)
	}
}

// TestSettleRefusesMismatchedReply: every layer's IDs share one table, so a
// reply of the wrong type carrying a live ID is dropped and counted, and
// the call it collided with keeps waiting for its own reply.
func TestSettleRefusesMismatchedReply(t *testing.T) {
	net := simnet.New(transport.ConstantLatency(time.Millisecond))
	reg := metrics.NewRegistry()
	n, err := NewNode(net, transport.Addr{Site: "s", Host: "a"}, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var got any
	id := n.Await(time.Second, echoResp{}, func(reply any, _ error) { got = reply })
	for _, wrong := range []any{echoReq{ID: id}, probeAck{Seq: id}, &echoResp{ID: id}, nil} {
		if n.Settle(id, wrong, nil) {
			t.Fatalf("Settle accepted a %T for a call awaiting echoResp", wrong)
		}
	}
	if got != nil {
		t.Fatalf("callback saw the mismatched reply %#v", got)
	}
	if c := reg.Counter("pastry_reply_mismatch_total"); c != 4 {
		t.Errorf("pastry_reply_mismatch_total = %d, want 4", c)
	}
	// A probeAck from the network with a colliding Seq takes the same path.
	n.handle(transport.Addr{Site: "s", Host: "b"}, probeAck{Seq: id})
	if c := reg.Counter("pastry_reply_mismatch_total"); c != 5 {
		t.Errorf("after a colliding probeAck: pastry_reply_mismatch_total = %d, want 5", c)
	}
	if !n.Settle(id, echoResp{ID: id, Body: "mine"}, nil) {
		t.Fatal("the call was not left pending for its own reply")
	}
	if r, _ := got.(echoResp); r.Body != "mine" {
		t.Fatalf("callback got %#v", got)
	}
}
