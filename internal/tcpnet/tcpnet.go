// Package tcpnet implements transport.Network over real TCP sockets, so
// the same Pastry/Scribe/RBAY node code that runs under the discrete-event
// simulator can be deployed as one process per node (cmd/rbayd) across
// real machines.
//
// Messages travel as length-prefixed binary frames (internal/wire, see
// docs/WIRE.md). Each cached peer connection has one writer goroutine
// that owns the socket's write side: a message leaves as soon as the
// writer is free, and whatever piled up while the previous write was in
// flight travels as one batch frame — one syscall for a burst of aggregate
// updates, announces, or probe acks, and no timer on an idle connection.
//
// Each Network owns one listener; all endpoints attached to it share the
// listener and are demultiplexed by the frame's To address. Every endpoint
// runs a single dispatch goroutine, preserving the "no concurrent handler
// invocations" guarantee node code relies on.
//
// The transport is hardened for long-lived daemons: cached peer
// connections are health-checked with lightweight ping/pong heartbeats, a
// failed write drops the stale connection, redials and rewrites the batch
// it was holding, Close drains what Send already accepted, dead peers are
// redialed in the background with capped exponential
// backoff, and peers that stay dead are surfaced through OnPeerDown so the
// overlay's repair protocol can fire. Delivery stays best-effort: protocol
// code already tolerates loss via its own timeouts.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rbay/internal/transport"
	"rbay/internal/wire"
)

// Resolver maps an overlay address to a TCP "host:port".
type Resolver func(transport.Addr) (string, error)

// StaticResolver resolves from a fixed table.
func StaticResolver(table map[transport.Addr]string) Resolver {
	return func(a transport.Addr) (string, error) {
		hp, ok := table[a]
		if !ok {
			return "", fmt.Errorf("tcpnet: no route to %v: %w", a, transport.ErrUnreachable)
		}
		return hp, nil
	}
}

// Config tunes the transport's batching cap and resilience machinery. The
// zero value means "use the default"; negative values disable the
// corresponding feature where that is meaningful.
type Config struct {
	// BatchBytes caps what may wait for a connection's writer, and so the
	// size of one batch frame: a Send that would grow the pending buffer
	// past it blocks until the writer has taken the buffer (back-pressure
	// from a peer that reads slowly). Default 64KiB.
	BatchBytes int
	// DialTimeout bounds one TCP dial. Default 3s.
	DialTimeout time.Duration
	// SendRetries is how many times a batch whose write failed is carried
	// to a freshly dialed connection before its messages are counted as
	// SendFailures, and how often Send itself retries after losing a race
	// with a connection's retirement. Default 1 (one redial); negative
	// disables retries.
	SendRetries int
	// BackoffMin/BackoffMax bound the per-peer exponential dial backoff:
	// after a failed dial the peer is not redialed (sends fail fast)
	// until the backoff expires. Defaults 50ms and 2s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// ReconnectAttempts is how many backoff-spaced background redials a
	// dead connection gets before its peers are declared down through
	// OnPeerDown. Default 3; negative disables background reconnect
	// (peers are then declared down as soon as the connection dies).
	ReconnectAttempts int
	// HeartbeatInterval is the ping period on idle cached connections.
	// Default 2s; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many intervals may pass without a pong
	// before the connection is declared dead. Default 3.
	HeartbeatMisses int
	// QueueLen bounds each endpoint's delivery queue; a delivery that
	// finds it full is dropped and counted (Stats.QueueDrops). Default
	// 1024.
	QueueLen int
}

func (c Config) withDefaults() Config {
	if c.BatchBytes <= 0 {
		c.BatchBytes = 64 << 10
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	switch {
	case c.SendRetries == 0:
		c.SendRetries = 1
	case c.SendRetries < 0:
		c.SendRetries = 0
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	switch {
	case c.ReconnectAttempts == 0:
		c.ReconnectAttempts = 3
	case c.ReconnectAttempts < 0:
		c.ReconnectAttempts = 0
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	return c
}

// Stats is a snapshot of the transport's counters, in the spirit of
// pastry.Stats / internal/metrics summaries.
type Stats struct {
	Dials             uint64 // TCP dial attempts
	DialFailures      uint64 // dials that failed (or were backoff-suppressed)
	Redials           uint64 // background reconnect attempts
	SendRetries       uint64 // sends retried after dropping a stale conn
	SendFailures      uint64 // sends that exhausted their retry budget
	HeartbeatsSent    uint64 // pings written to cached conns
	HeartbeatTimeouts uint64 // conns declared dead for missing pongs
	ConnDrops         uint64 // cached conns dropped for any reason
	QueueDrops        uint64 // deliveries dropped by a full endpoint queue
	PeerDownEvents    uint64 // peer addresses reported through OnPeerDown
	BatchFrames       uint64 // coalesced batch frames written
	BatchedMessages   uint64 // data messages carried inside batch frames
}

// String renders a compact one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("dials=%d (fail %d, redial %d) retries=%d sendfail=%d hb=%d (timeout %d) drops=%d qdrops=%d peerdown=%d batches=%d/%d",
		s.Dials, s.DialFailures, s.Redials, s.SendRetries, s.SendFailures,
		s.HeartbeatsSent, s.HeartbeatTimeouts, s.ConnDrops, s.QueueDrops, s.PeerDownEvents,
		s.BatchedMessages, s.BatchFrames)
}

type counters struct {
	dials             atomic.Uint64
	dialFailures      atomic.Uint64
	redials           atomic.Uint64
	sendRetries       atomic.Uint64
	sendFailures      atomic.Uint64
	heartbeatsSent    atomic.Uint64
	heartbeatTimeouts atomic.Uint64
	connDrops         atomic.Uint64
	queueDrops        atomic.Uint64
	peerDownEvents    atomic.Uint64
	batchFrames       atomic.Uint64
	batchedMessages   atomic.Uint64
}

// dialBackoff tracks the fail-fast window for one peer hostport.
type dialBackoff struct {
	failures int
	nextTry  time.Time
}

// Network is a TCP-backed transport.Network.
type Network struct {
	listener net.Listener
	resolver Resolver
	cfg      Config

	mu         sync.Mutex
	endpoints  map[transport.Addr]*Endpoint
	conns      map[string]*clientConn
	accepted   map[net.Conn]struct{}
	backoff    map[string]*dialBackoff
	redialing  map[string]bool
	onPeerDown []func(transport.Addr)
	closed     bool
	done       chan struct{}
	wg         sync.WaitGroup

	stats counters
}

// closeDrain bounds how long Close lets the writers spend on what Send had
// already accepted before the sockets are closed under them.
const closeDrain = 200 * time.Millisecond

// clientConn is one cached outbound connection. Only its writer goroutine
// (writeLoop) writes to the socket; everyone else talks to the writer
// through the fields below mu.
type clientConn struct {
	hostport string
	c        net.Conn

	mu        sync.Mutex
	work      *sync.Cond    // the writer waits here for data, a ping, closing or dead
	space     *sync.Cond    // senders held back by BatchBytes wait here
	pend      *wire.Encoder // length-prefixed messages the writer has not taken yet; nil when empty
	pendCount int
	retried   int  // SendRetries already spent on pend by a retired connection's writer
	pingDue   bool // the heartbeat loop wants a ping written
	closing   bool // Close: write what is pending, accept nothing more, then retire

	peers    map[transport.Addr]struct{} // overlay addrs routed through this conn
	lastPong time.Time
	dead     bool
}

// newClientConn wraps an established socket in a cached connection and
// starts its writer (the dial path and tests share it).
func (n *Network) newClientConn(hostport string, c net.Conn) *clientConn {
	cc := &clientConn{
		hostport: hostport,
		c:        c,
		peers:    make(map[transport.Addr]struct{}),
		lastPong: time.Now(),
	}
	cc.work = sync.NewCond(&cc.mu)
	cc.space = sync.NewCond(&cc.mu)
	n.wg.Add(1)
	go n.writeLoop(cc)
	return cc
}

func (cc *clientConn) track(to transport.Addr) {
	if to.IsZero() {
		return
	}
	cc.mu.Lock()
	cc.peers[to] = struct{}{}
	cc.mu.Unlock()
}

func (cc *clientConn) peerList() []transport.Addr {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	peers := make([]transport.Addr, 0, len(cc.peers))
	for a := range cc.peers {
		peers = append(peers, a)
	}
	return peers
}

var errConnDead = errors.New("connection is dead")

// enqueue appends one pre-encoded data-rest to the pending buffer and
// wakes the writer if the buffer was empty. A message that would grow the
// buffer past batchBytes waits until the writer has taken it (one larger
// than batchBytes travels alone), so a peer that reads slowly holds its
// senders back instead of growing a queue; retiring or closing the
// connection releases them with errConnDead.
func (cc *clientConn) enqueue(rest []byte, batchBytes int) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for {
		if cc.dead || cc.closing {
			return errConnDead
		}
		if cc.pendCount == 0 || cc.pend.Len()+binary.MaxVarintLen32+len(rest) <= batchBytes {
			break
		}
		cc.space.Wait()
	}
	if cc.pend == nil {
		cc.pend = wire.GetEncoder()
	}
	cc.pend.Uvarint(uint64(len(rest)))
	cc.pend.Append(rest)
	if cc.pendCount++; cc.pendCount == 1 {
		cc.work.Signal()
	}
	return nil
}

// adopt hands cc a batch that a retired connection's writer was holding
// when its write failed. Like any sender it waits for an empty buffer, so
// the batch stays one frame of the size it already had.
func (cc *clientConn) adopt(held *wire.Encoder, count, retried int, peers []transport.Addr) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for cc.pendCount > 0 && !cc.dead && !cc.closing {
		cc.space.Wait()
	}
	if cc.dead || cc.closing {
		return false
	}
	cc.pend, cc.pendCount, cc.retried = held, count, retried
	for _, a := range peers {
		cc.peers[a] = struct{}{}
	}
	cc.work.Signal()
	return true
}

// drain is Close's half of the shutdown hand-off: the writer writes what
// is pending, under a deadline so a peer that has stopped reading cannot
// hold Close up, and then retires the connection.
func (cc *clientConn) drain(deadline time.Time) {
	_ = cc.c.SetWriteDeadline(deadline) // a conn that cannot take one fails its write instead
	cc.mu.Lock()
	cc.closing = true
	cc.work.Signal()
	cc.space.Broadcast()
	cc.mu.Unlock()
}

// writeLoop is the connection's writer. It swaps the pending buffer out,
// writes it as one frame with mu released — a plain data frame for one
// message, a batch frame for more — and loops until nothing is pending, so
// an idle connection pays one goroutine hand-off per message and a busy one
// batches exactly what arrived while the previous write was in flight.
// Pings go out ahead of the data, in a frame of their own.
func (n *Network) writeLoop(cc *clientConn) {
	defer n.wg.Done()
	var seq uint64 // per-connection frame sequence (all kinds)
	for {
		cc.mu.Lock()
		for !cc.dead && !cc.closing && !cc.pingDue && cc.pendCount == 0 {
			cc.work.Wait()
		}
		if cc.dead {
			cc.mu.Unlock()
			return
		}
		if !cc.pingDue && cc.pendCount == 0 { // closing, and drained
			cc.mu.Unlock()
			n.connDead(cc, false)
			return
		}
		ping, pend, count, retried := cc.pingDue, cc.pend, cc.pendCount, cc.retried
		cc.pingDue, cc.pend, cc.pendCount, cc.retried = false, nil, 0, 0
		cc.space.Broadcast()
		cc.mu.Unlock()

		f := wire.GetEncoder()
		if ping {
			seq++
			f.EndFrame(f.BeginFrame(wire.KindPing, seq))
		}
		switch {
		case count == 1:
			// Strip the entry's length prefix and send a plain data frame.
			b := pend.Bytes()
			_, nn := binary.Uvarint(b)
			seq++
			at := f.BeginFrame(wire.KindData, seq)
			f.Append(b[nn:])
			f.EndFrame(at)
		case count > 1:
			seq++
			at := f.BeginFrame(wire.KindBatch, seq)
			f.Uvarint(uint64(count))
			f.Append(pend.Bytes())
			f.EndFrame(at)
		}
		_, err := cc.c.Write(f.Bytes())
		wire.PutEncoder(f)
		if err != nil {
			n.writeFailed(cc, pend, count, retried)
			return
		}
		if ping {
			n.stats.heartbeatsSent.Add(1)
		}
		if count > 1 {
			n.stats.batchFrames.Add(1)
			n.stats.batchedMessages.Add(uint64(count))
		}
		if pend != nil {
			wire.PutEncoder(pend)
		}
	}
}

// writeFailed is where a write error on a cached connection is handled: on
// the writer that saw it, still holding the batch (count messages; none
// when only a ping was due). The stale connection is retired, the batch is
// carried to a fresh one within what is left of the SendRetries budget —
// counted per message, as send counts — and only when that fails is the
// peer handed to the background reconnect loop and, in the end, OnPeerDown.
func (n *Network) writeFailed(cc *clientConn, held *wire.Encoder, count, retried int) {
	n.connDead(cc, false)
	peers := cc.peerList()
	if count > 0 {
		for retried < n.cfg.SendRetries {
			retried++
			n.stats.sendRetries.Add(uint64(count))
			fresh, err := n.conn(cc.hostport, transport.Addr{})
			if err != nil {
				// Dialing failed (or is backoff-suppressed); an immediate
				// retry cannot help.
				break
			}
			if fresh.adopt(held, count, retried, peers) {
				return
			}
		}
		wire.PutEncoder(held)
		n.stats.sendFailures.Add(uint64(count))
	}
	n.ensureReconnect(cc.hostport, peers)
}

// Listen starts a network listening on the given TCP address ("":0 for an
// ephemeral port) with the default Config.
func Listen(listen string, resolver Resolver) (*Network, error) {
	return ListenConfig(listen, resolver, Config{})
}

// ListenConfig starts a network with explicit wire/resilience tuning.
func ListenConfig(listen string, resolver Resolver, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	n := &Network{
		listener:  l,
		resolver:  resolver,
		cfg:       cfg,
		endpoints: make(map[transport.Addr]*Endpoint),
		conns:     make(map[string]*clientConn),
		accepted:  make(map[net.Conn]struct{}),
		backoff:   make(map[string]*dialBackoff),
		redialing: make(map[string]bool),
		done:      make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ListenAddr returns the bound TCP address.
func (n *Network) ListenAddr() string { return n.listener.Addr().String() }

// Stats returns a snapshot of the transport counters.
func (n *Network) Stats() Stats {
	return Stats{
		Dials:             n.stats.dials.Load(),
		DialFailures:      n.stats.dialFailures.Load(),
		Redials:           n.stats.redials.Load(),
		SendRetries:       n.stats.sendRetries.Load(),
		SendFailures:      n.stats.sendFailures.Load(),
		HeartbeatsSent:    n.stats.heartbeatsSent.Load(),
		HeartbeatTimeouts: n.stats.heartbeatTimeouts.Load(),
		ConnDrops:         n.stats.connDrops.Load(),
		QueueDrops:        n.stats.queueDrops.Load(),
		PeerDownEvents:    n.stats.peerDownEvents.Load(),
		BatchFrames:       n.stats.batchFrames.Load(),
		BatchedMessages:   n.stats.batchedMessages.Load(),
	}
}

// OnPeerDown registers a callback invoked once per overlay address when
// the liveness machinery gives up on a peer: its connection died and the
// reconnect budget was exhausted. Callbacks run on an internal transport
// goroutine — marshal onto the node's event context (Node.Do / After)
// before touching protocol state.
func (n *Network) OnPeerDown(cb func(transport.Addr)) {
	n.mu.Lock()
	n.onPeerDown = append(n.onPeerDown, cb)
	n.mu.Unlock()
}

// Close shuts the listener, all endpoints, and all liveness goroutines
// down. Messages Send had accepted are written first (each connection's
// writer gets closeDrain to finish), so a departing node's last words
// reach the wire.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	n.closed = true
	close(n.done)
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	conns := n.conns
	n.conns = map[string]*clientConn{}
	accepted := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		accepted = append(accepted, c)
	}
	n.accepted = map[net.Conn]struct{}{}
	n.mu.Unlock()

	deadline := time.Now().Add(closeDrain)
	for _, cc := range conns {
		cc.drain(deadline)
	}
	err := n.listener.Close()
	for _, c := range accepted {
		_ = c.Close()
	}
	for _, ep := range eps {
		_ = ep.Close()
	}
	n.wg.Wait()
	return err
}

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *Network) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	n.readFramesLoop(conn)
}

// readFramesLoop drains one accepted binary-framed connection: data and
// batch frames are demultiplexed to endpoints, pings are answered with a
// pong echoing the ping's sequence. Any framing error (oversized length,
// corrupt body) abandons the connection — stream corruption is not
// survivable, and the sender's liveness machinery redials.
func (n *Network) readFramesLoop(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	var hdr [4]byte
	var body []byte
	var pongSeq uint64
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		ln := binary.LittleEndian.Uint32(hdr[:])
		if ln > wire.DefaultMaxFrame {
			return
		}
		if cap(body) < int(ln) {
			body = make([]byte, ln)
		}
		body = body[:ln]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		kind, seq, rest, err := wire.DecodeFrameBody(body)
		if err != nil {
			return
		}
		switch kind {
		case wire.KindPing:
			// Only this goroutine writes to accepted conns.
			e := wire.GetEncoder()
			pongSeq++
			at := e.BeginFrame(wire.KindPong, pongSeq)
			e.Uvarint(seq)
			e.EndFrame(at)
			_, werr := conn.Write(e.Bytes())
			wire.PutEncoder(e)
			if werr != nil {
				return
			}
		case wire.KindPong:
			// Not expected on accepted conns; ignore.
		case wire.KindData:
			m, err := wire.DecodeDataRest(rest)
			if err != nil {
				return
			}
			n.deliver(m.From, m.To, m.Payload)
		case wire.KindBatch:
			if err := wire.DecodeBatchRest(rest, func(m wire.DataMsg) {
				n.deliver(m.From, m.To, m.Payload)
			}); err != nil {
				return
			}
		default:
			return
		}
	}
}

// deliver hands one inbound message to its endpoint's dispatch queue.
func (n *Network) deliver(from, to transport.Addr, payload any) {
	n.mu.Lock()
	ep := n.endpoints[to]
	n.mu.Unlock()
	if ep != nil {
		ep.offer(func() { ep.handler(from, payload) })
	}
}

// NewEndpoint implements transport.Network.
func (n *Network) NewEndpoint(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := n.endpoints[addr]; dup {
		return nil, fmt.Errorf("tcpnet: address %v already attached", addr)
	}
	ep := &Endpoint{
		net:     n,
		addr:    addr,
		handler: h,
		queue:   make(chan func(), n.cfg.QueueLen),
		done:    make(chan struct{}),
	}
	n.endpoints[addr] = ep
	go ep.dispatchLoop()
	return ep, nil
}

func (n *Network) send(from, to transport.Addr, msg any) error {
	// Local fast path.
	n.mu.Lock()
	if local, ok := n.endpoints[to]; ok {
		n.mu.Unlock()
		local.offer(func() { local.handler(from, msg) })
		return nil
	}
	n.mu.Unlock()

	hostport, err := n.resolver(to)
	if err != nil {
		return err
	}

	// Encode the payload once, before touching any connection: an
	// unencodable payload (unregistered type) is the caller's bug, not
	// the connection's — fail without retries and without retiring the
	// conn.
	rest := wire.GetEncoder()
	defer wire.PutEncoder(rest)
	rest.DataRest(to, from, msg)
	if err := rest.Err(); err != nil {
		n.stats.sendFailures.Add(1)
		return err
	}
	if rest.Len() > wire.DefaultMaxFrame-16 {
		n.stats.sendFailures.Add(1)
		return fmt.Errorf("tcpnet: message to %v exceeds max frame (%d bytes)", to, rest.Len())
	}

	// A write failure is the writer's to handle (writeFailed); the loop
	// here is for the send that finds its connection retired between the
	// lookup and the enqueue, and dials afresh.
	var lastErr error
	for attempt := 0; attempt <= n.cfg.SendRetries; attempt++ {
		if attempt > 0 {
			n.stats.sendRetries.Add(1)
		}
		cc, err := n.conn(hostport, to)
		if err != nil {
			// Dialing failed (or is backoff-suppressed); an immediate
			// retry cannot help, so fail fast.
			lastErr = err
			break
		}
		if lastErr = cc.enqueue(rest.Bytes(), n.cfg.BatchBytes); lastErr == nil {
			return nil
		}
	}
	n.stats.sendFailures.Add(1)
	return fmt.Errorf("%w: send to %s: %v", transport.ErrUnreachable, hostport, lastErr)
}

// conn returns the cached connection for hostport, dialing if needed and
// the peer is not in a backoff window. to (if non-zero) is recorded as
// routed through the connection for peer-down attribution.
func (n *Network) conn(hostport string, to transport.Addr) (*clientConn, error) {
	n.mu.Lock()
	if cc, ok := n.conns[hostport]; ok {
		n.mu.Unlock()
		cc.track(to)
		return cc, nil
	}
	if n.closed {
		n.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if bo := n.backoff[hostport]; bo != nil && time.Now().Before(bo.nextTry) {
		n.mu.Unlock()
		n.stats.dialFailures.Add(1)
		return nil, fmt.Errorf("dial %s suppressed by backoff (%d consecutive failures)", hostport, bo.failures)
	}
	n.mu.Unlock()
	return n.dial(hostport, to)
}

func (n *Network) dial(hostport string, to transport.Addr) (*clientConn, error) {
	n.stats.dials.Add(1)
	c, err := net.DialTimeout("tcp", hostport, n.cfg.DialTimeout)
	n.mu.Lock()
	if err != nil {
		n.stats.dialFailures.Add(1)
		bo := n.backoff[hostport]
		if bo == nil {
			bo = &dialBackoff{}
			n.backoff[hostport] = bo
		}
		bo.failures++
		d := n.cfg.BackoffMin
		for i := 1; i < bo.failures && d < n.cfg.BackoffMax; i++ {
			d *= 2
		}
		if d > n.cfg.BackoffMax {
			d = n.cfg.BackoffMax
		}
		bo.nextTry = time.Now().Add(d)
		n.mu.Unlock()
		return nil, err
	}
	if n.closed {
		// Close raced the dial: caching now would leak the socket past
		// Close and resurrect a closed network.
		n.mu.Unlock()
		_ = c.Close()
		return nil, transport.ErrClosed
	}
	if existing, ok := n.conns[hostport]; ok {
		n.mu.Unlock()
		_ = c.Close()
		existing.track(to)
		return existing, nil
	}
	delete(n.backoff, hostport)
	cc := n.newClientConn(hostport, c)
	n.conns[hostport] = cc
	n.wg.Add(1)
	go n.connReadLoop(cc)
	if n.cfg.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop(cc)
	}
	n.mu.Unlock()
	cc.track(to)
	return cc, nil
}

// connReadLoop drains the client side of a cached connection: pong
// replies feed the liveness clock, and EOF (peer closed or restarted)
// retires the stale connection immediately instead of poisoning the next
// send.
func (n *Network) connReadLoop(cc *clientConn) {
	defer n.wg.Done()
	r := bufio.NewReaderSize(cc.c, 4096)
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			n.connDead(cc, true)
			return
		}
		ln := binary.LittleEndian.Uint32(hdr[:])
		if ln > wire.DefaultMaxFrame {
			n.connDead(cc, true)
			return
		}
		if cap(body) < int(ln) {
			body = make([]byte, ln)
		}
		body = body[:ln]
		if _, err := io.ReadFull(r, body); err != nil {
			n.connDead(cc, true)
			return
		}
		kind, _, _, err := wire.DecodeFrameBody(body)
		if err != nil {
			n.connDead(cc, true)
			return
		}
		if kind == wire.KindPong {
			cc.mu.Lock()
			cc.lastPong = time.Now()
			cc.mu.Unlock()
		}
	}
}

func (n *Network) heartbeatLoop(cc *clientConn) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		cc.mu.Lock()
		if cc.dead {
			cc.mu.Unlock()
			return
		}
		stale := time.Since(cc.lastPong) > time.Duration(n.cfg.HeartbeatMisses)*n.cfg.HeartbeatInterval
		if !stale {
			// The writer owns the socket; a failed ping retires the
			// connection from there.
			cc.pingDue = true
			cc.work.Signal()
		}
		cc.mu.Unlock()
		if stale {
			n.stats.heartbeatTimeouts.Add(1)
			n.connDead(cc, true)
			return
		}
	}
}

// connDead retires a cached connection exactly once: it leaves the cache
// in the same step that marks it dead (so a sender turned away by a dead
// connection finds none cached and dials), what was pending is dropped,
// and the writer and any senders it was holding back are woken. With
// reconnect set, a background redial loop is started (unless one is already
// running for the peer); if it exhausts its budget the peer's addresses are
// reported through OnPeerDown.
func (n *Network) connDead(cc *clientConn, reconnect bool) {
	n.mu.Lock()
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		n.mu.Unlock()
		return
	}
	cc.dead = true
	if cc.pend != nil {
		wire.PutEncoder(cc.pend)
		cc.pend, cc.pendCount = nil, 0
	}
	cc.work.Signal()
	cc.space.Broadcast()
	cc.mu.Unlock()
	if n.conns[cc.hostport] == cc {
		delete(n.conns, cc.hostport)
	}
	if reconnect && !n.closed && !n.redialing[cc.hostport] {
		n.redialing[cc.hostport] = true
		n.wg.Add(1)
		go n.reconnect(cc.hostport, cc.peerList())
	}
	n.mu.Unlock()
	_ = cc.c.Close()
	n.stats.connDrops.Add(1)
}

// ensureReconnect starts the background redial loop for a peer unless one
// is already running or a live connection exists. The writer calls it once
// a failed write could not be carried to a fresh connection: it retired the
// connection itself, and winning that race against the conn read loop must
// not suppress reconnect (and ultimately OnPeerDown) for a genuinely dead
// peer.
func (n *Network) ensureReconnect(hostport string, peers []transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.redialing[hostport] {
		return
	}
	if _, live := n.conns[hostport]; live {
		return
	}
	n.redialing[hostport] = true
	n.wg.Add(1)
	go n.reconnect(hostport, peers)
}

// reconnect redials a dead peer with capped exponential backoff. Success
// re-caches the connection (carrying over peer attribution); exhausting
// the budget declares every overlay address routed through the old
// connection down.
func (n *Network) reconnect(hostport string, peers []transport.Addr) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.redialing, hostport)
		n.mu.Unlock()
	}()
	backoff := n.cfg.BackoffMin
	for attempt := 0; attempt < n.cfg.ReconnectAttempts; attempt++ {
		select {
		case <-n.done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > n.cfg.BackoffMax {
			backoff = n.cfg.BackoffMax
		}
		n.stats.redials.Add(1)
		var first transport.Addr
		if len(peers) > 0 {
			first = peers[0]
		}
		if cc, err := n.dial(hostport, first); err == nil {
			for _, a := range peers {
				cc.track(a)
			}
			return
		} else if errors.Is(err, transport.ErrClosed) {
			return
		}
	}

	n.mu.Lock()
	var cbs []func(transport.Addr)
	cbs = append(cbs, n.onPeerDown...)
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	n.stats.peerDownEvents.Add(uint64(len(peers)))
	for _, a := range peers {
		for _, cb := range cbs {
			cb(a)
		}
	}
}

// Endpoint is a TCP-backed transport.Endpoint.
type Endpoint struct {
	net     *Network
	addr    transport.Addr
	handler transport.Handler

	queue chan func()
	done  chan struct{}

	mu     sync.Mutex
	closed bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

func (e *Endpoint) dispatchLoop() {
	for {
		select {
		case fn := <-e.queue:
			fn()
		case <-e.done:
			return
		}
	}
}

// enqueue blocks until the queue has room; timers use it so scheduled
// callbacks are never silently dropped.
func (e *Endpoint) enqueue(fn func()) {
	select {
	case e.queue <- fn:
	case <-e.done:
	}
}

// offer queues a delivery, or drops and counts it when the queue is full;
// the delivery paths (listener read loop, local fast path) use it so one
// slow endpoint cannot head-of-line block every other endpoint sharing
// the listener.
func (e *Endpoint) offer(fn func()) {
	select {
	case e.queue <- fn:
	case <-e.done:
	default:
		e.net.stats.queueDrops.Add(1)
	}
}

// Addr implements transport.Endpoint.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Now implements transport.Endpoint (wall clock in real deployments).
func (e *Endpoint) Now() time.Time { return time.Now() }

// Send implements transport.Endpoint.
func (e *Endpoint) Send(to transport.Addr, msg any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	return e.net.send(e.addr, to, msg)
}

// After implements transport.Endpoint: the callback runs on the
// endpoint's dispatch goroutine.
func (e *Endpoint) After(d time.Duration, fn func()) transport.CancelFunc {
	var mu sync.Mutex
	cancelled := false
	t := time.AfterFunc(d, func() {
		mu.Lock()
		dead := cancelled
		mu.Unlock()
		if dead {
			return
		}
		e.enqueue(func() {
			mu.Lock()
			dead := cancelled
			mu.Unlock()
			if !dead {
				fn()
			}
		})
	})
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		if cancelled {
			return false
		}
		cancelled = true
		t.Stop()
		return true
	}
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	return nil
}
