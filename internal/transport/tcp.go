package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"actop/internal/codec"
)

// TCP is a Transport over real sockets, built around one rule: senders
// write, and each connection has exactly one goroutine, its reader.
//
//   - Envelopes travel as hand-rolled length-prefixed binary frames (see
//     frame.go) — no reflection, no per-message gob type descriptors.
//   - Each peer has one lazily dialed outbound connection. Send encodes
//     the frame and writes it on the calling goroutine, under the peer's
//     write mutex. Concurrent senders share flushes: one that sees another
//     already queued on the mutex leaves its frame in the buffer, and the
//     last in line flushes for all of them. A lone sender pays one write
//     syscall per message.
//   - Inbound frames are decoded and handed to the handler on the
//     connection's read loop itself, so the handler must not block (see
//     Handler).
//
// Node ids are the listen addresses, so peers need no separate name
// service.
//
// Error semantics: a dial failure surfaces as ErrUnreachable from Send (the
// address is known, the peer is not reachable right now). A write failure
// on an established connection redials once and retransmits the frame
// being sent; frames of earlier senders still waiting in the buffer for
// that flush are lost with the connection (the runtime's call retries cover
// them, as they cover bytes lost in a dead socket's kernel buffer). If the
// redial fails too, Send returns ErrUnreachable and forgets the peer.
// Handlers must not call Close (Close waits for in-flight handler
// invocations to return).
type TCP struct {
	id       NodeID
	listener net.Listener

	mu      sync.Mutex
	handler Handler
	peers   map[NodeID]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup // the accept loop and every read loop
}

// tcpPeer is one outbound connection.
type tcpPeer struct {
	// wmu is the single-writer lock: whoever holds it owns fw and buf and
	// is the only goroutine writing to the socket. It is held across the
	// write syscall on purpose — that is what serializes frames — and is
	// never held by a reader, so a full socket stalls senders to this peer
	// and nothing else. Close unblocks a stalled holder through mu/conn.
	wmu sync.Mutex
	fw  *codec.FrameWriter
	buf []byte // frame scratch, reused across sends
	// waiting counts senders queued on wmu. The holder flushes only when
	// it reads zero: a queued sender is certain to write next and inherits
	// the flush.
	waiting atomic.Int32

	mu     sync.Mutex
	conn   net.Conn // current socket; swapped on redial, slammed by Close
	closed bool
}

// setConn installs a fresh socket, unless the peer was closed meanwhile.
func (p *tcpPeer) setConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = c
	return true
}

// closeConn tears the peer down, unblocking a sender stuck in a syscall.
func (p *tcpPeer) closeConn() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
}

// ListenTCP starts a node listening on addr ("host:port"; ":0" picks a free
// port). The node's id is its actual listen address.
func ListenTCP(addr string) (*TCP, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		id:       NodeID(l.Addr().String()),
		listener: l,
		peers:    make(map[NodeID]*tcpPeer),
		inbound:  make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Node reports the listen address.
func (t *TCP) Node() NodeID { return t.id }

// SetHandler installs the inbound consumer.
func (t *TCP) SetHandler(h Handler) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// --- inbound path ---

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop is a connection's only goroutine: it decodes frames and runs
// the handler on each. Close waits for it to exit, so no handler invocation
// is in flight once Close returns; frames still buffered when Close begins
// are dropped.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	fr := codec.NewFrameReader(conn)
	in := newInterner()
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			return
		}
		env, err := decodeEnvelope(frame, in)
		if err != nil {
			return // corrupt stream: drop the connection
		}
		t.mu.Lock()
		h, closed := t.handler, t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(env)
		}
	}
}

// --- outbound path ---

// Send writes env to the peer listening at `to`, dialing on first use, and
// returns once the frame is in the socket (or in the write buffer behind a
// queued sender that will flush it). A socket that does not drain blocks
// Send — that is the backpressure — until it does or the transport closes.
func (t *TCP) Send(to NodeID, env *Envelope) error {
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	cp := *env
	cp.From = t.id
	p.waiting.Add(1)
	p.wmu.Lock()
	defer p.wmu.Unlock()
	flush := p.waiting.Add(-1) == 0
	p.buf = appendEnvelope(p.buf[:0], &cp)
	if p.writeFrame(flush) == nil {
		return nil
	}
	// Write failures are the only redial trigger: once, with this frame.
	if err = t.redial(to, p); err != nil {
		t.dropPeer(to, p)
	}
	return err
}

// redial replaces p's broken socket and retransmits p.buf on the new one.
// Caller holds p.wmu.
func (t *TCP) redial(to NodeID, p *tcpPeer) error {
	conn, err := t.dial(to)
	if err != nil {
		return err
	}
	if !p.setConn(conn) {
		return ErrClosed // closed or dropped meanwhile
	}
	p.fw = codec.NewFrameWriter(conn)
	if err := p.writeFrame(true); err != nil {
		return fmt.Errorf("%w: %s (%v after redial)", ErrUnreachable, to, err)
	}
	return nil
}

// writeFrame writes p.buf as one frame. Caller holds p.wmu.
func (p *tcpPeer) writeFrame(flush bool) error {
	err := p.fw.WriteFrame(p.buf)
	if err == nil && flush {
		err = p.fw.Flush()
	}
	return err
}

// dial connects to a peer's listen address.
func (t *TCP) dial(to NodeID) (net.Conn, error) {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	conn, err := net.Dial("tcp", string(to))
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
	}
	return conn, nil
}

// peer returns the outbound peer for `to`, dialing on first use.
func (t *TCP) peer(to NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	p, ok := t.peers[to] // emptied by Close
	t.mu.Unlock()
	if ok {
		return p, nil
	}
	conn, err := t.dial(to)
	if err != nil {
		return nil, err
	}
	p = &tcpPeer{conn: conn, fw: codec.NewFrameWriter(conn)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.peers[to]; ok {
		conn.Close() // lost the race; reuse the winner
		return existing, nil
	}
	t.peers[to] = p
	return p, nil
}

func (t *TCP) dropPeer(to NodeID, p *tcpPeer) {
	t.mu.Lock()
	if t.peers[to] == p {
		delete(t.peers, to)
	}
	t.mu.Unlock()
	p.closeConn()
}

// Close shuts the listener and all connections — releasing any Send blocked
// in a write — then waits for every read loop, and with it any in-flight
// handler invocation, to finish.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed = true
	peers := t.peers
	t.peers = map[NodeID]*tcpPeer{}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	t.listener.Close()
	for _, p := range peers {
		p.closeConn()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
