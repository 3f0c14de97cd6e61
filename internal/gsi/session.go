package gsi

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/pki"
)

// Multiplexed session mode. A Session carries many concurrent protocol
// exchanges over ONE authenticated connection: each exchange runs on its
// own Stream, and frames from all streams interleave on the wire tagged
// with a stream id (see WriteStreamFrame). This removes the per-operation
// TCP+TLS handshake from the paper's Fig. 2 hot path: a portal that needs
// N delegations pays one handshake and pipelines N exchanges.
//
// Roles are asymmetric, matching the protocol: the initiating side opens
// streams (Open), the accepting side receives them (Accept). A stream is
// opened implicitly by its first frame — no open/ack round trip — so a
// pipelined exchange costs zero extra flights.
//
// Authentication happens once, at connection setup; revocation must not.
// The accepting side is expected to re-verify the peer chain (Conn's
// PeerChain, through a VerifyCache whose hits re-check revocation) before
// serving each accepted stream, so a CRL reload refuses a revoked peer on
// the very next stream of an already-open session.

// ErrSessionClosed is returned by stream and session operations after the
// session has failed or been closed.
var ErrSessionClosed = errors.New("gsi: session closed")

// Both transports satisfy Channel.
var (
	_ Channel = (*Conn)(nil)
	_ Channel = (*Stream)(nil)
)

// streamInboxSize bounds undelivered frames per stream. The protocol is
// strict request/response per stream, so more than a couple of queued
// frames means the peer is not following it.
const streamInboxSize = 16

// Session multiplexes streams over one authenticated Conn. Safe for
// concurrent use; all streams fail together when the connection does.
type Session struct {
	conn   *Conn
	client bool

	// wmu serializes stream-frame writes from concurrent streams.
	wmu sync.Mutex

	mu      sync.Mutex
	streams map[uint32]*Stream
	nextID  uint32 // initiator: next stream id to allocate
	maxSeen uint32 // acceptor: highest id seen, to refuse id reuse
	err     error  // first fatal error; set once

	accept chan *Stream
	done   chan struct{}

	// msgTimeout is inherited by new streams as their per-message read
	// budget (0 = none).
	msgTimeout time.Duration
}

// newSession wires up a session over an authenticated conn and starts the
// read loop. The caller chooses the role: the initiator opens streams, the
// acceptor receives them.
func newSession(conn *Conn, client bool) *Session {
	s := &Session{
		conn:       conn,
		client:     client,
		streams:    make(map[uint32]*Stream),
		nextID:     1,
		accept:     make(chan *Stream, 8),
		done:       make(chan struct{}),
		msgTimeout: conn.msgTimeout,
	}
	// The per-message conn deadline belongs to the single-exchange mode;
	// in mux mode concurrent streams share the transport, so progress is
	// bounded by the absolute session deadline the owner arms instead.
	conn.SetMessageTimeout(0)
	go s.readLoop()
	return s
}

// NewClientSession starts multiplexed mode on the initiating side.
func NewClientSession(conn *Conn) *Session { return newSession(conn, true) }

// NewServerSession starts multiplexed mode on the accepting side.
func NewServerSession(conn *Conn) *Session { return newSession(conn, false) }

// Conn exposes the underlying connection (peer chain re-verification,
// deadline management). The caller must not read or write raw frames on
// it while the session is live.
func (s *Session) Conn() *Conn { return s.conn }

// readLoop is the single reader: it routes each incoming frame to its
// stream, creating acceptor-side streams on first sight of a new id.
func (s *Session) readLoop() {
	for {
		id, payload, err := ReadStreamFrame(s.conn.tls, s.conn.maxFrame)
		if err != nil {
			s.fail(fmt.Errorf("gsi: session read: %w", err))
			return
		}
		if err := s.route(id, payload); err != nil {
			s.fail(err)
			return
		}
	}
}

// route delivers one frame. Frames for ids the local side has already
// released are dropped: with strict request/response streams that only
// happens in benign shutdown races, never as lost protocol state.
func (s *Session) route(id uint32, payload []byte) error {
	s.mu.Lock()
	st, ok := s.streams[id]
	if !ok && !s.client && id > s.maxSeen {
		// First frame of a new stream on the accepting side.
		s.maxSeen = id
		st = s.newStream(context.Background())
		st.id = id
		s.streams[id] = st
		ok = true
		select {
		case s.accept <- st:
		default:
			s.mu.Unlock()
			return errors.New("gsi: session accept queue overflow")
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case st.inbox <- payload:
		return nil
	default:
		// The peer pushed past the request/response discipline; a stalled
		// stream must not wedge the shared read loop.
		return fmt.Errorf("gsi: stream %d inbox overflow", id)
	}
}

func (s *Session) newStream(ctx context.Context) *Stream {
	return &Stream{
		s:       s,
		ctx:     ctx,
		inbox:   make(chan []byte, streamInboxSize),
		timeout: s.msgTimeout,
	}
}

// Open starts a new stream (initiating side only). The stream exists on
// the peer once its first message arrives there. ctx bounds every
// ReadMessage on the stream; a reply that arrives after the caller gave up
// and closed the stream is dropped like any frame for a released id.
func (s *Session) Open(ctx context.Context) (*Stream, error) {
	if !s.client {
		return nil, errors.New("gsi: accepting side cannot open streams")
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return s.newStream(ctx), nil
}

// Accept waits for the peer to open a stream (accepting side only).
func (s *Session) Accept() (*Stream, error) {
	select {
	case st := <-s.accept:
		return st, nil
	case <-s.done:
		return nil, s.Err()
	}
}

// writeFrame sends one frame on behalf of a stream, serialized across
// streams. The write deadline is armed per frame so one stalled peer
// window cannot hold the write lock forever.
func (s *Session) writeFrame(st *Stream, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	select {
	case <-s.done:
		return s.Err()
	default:
	}
	if st.id == 0 {
		// An initiating stream takes its id with its first frame, under
		// wmu, so new ids reach the peer in increasing order: the acceptor
		// drops a frame for an id at or below the highest it has seen.
		s.mu.Lock()
		st.id = s.nextID
		s.nextID++
		s.streams[st.id] = st
		s.mu.Unlock()
	}
	if s.msgTimeout > 0 {
		if err := s.conn.tls.SetWriteDeadline(time.Now().Add(s.msgTimeout)); err != nil {
			return fmt.Errorf("gsi: arm stream write deadline: %w", err)
		}
	}
	//myproxy:allow hotblock frames must serialize on wmu by design; the per-frame write deadline above bounds the hold
	if err := WriteStreamFrame(s.conn.tls, st.id, payload); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// release forgets a stream; later frames for its id are dropped. Id 0 is
// an initiating stream that never wrote, so the peer never saw it.
func (s *Session) release(id uint32) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

// fail records the first fatal error, closes the transport, and wakes
// every stream and pending Accept.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.done)
	}
	s.mu.Unlock()
	_ = s.conn.Close() // session already failing; close is best-effort
}

// Err returns the error that ended the session (ErrSessionClosed after a
// clean Close), or nil while it is live.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the session and the underlying connection. In-flight stream
// operations return ErrSessionClosed.
func (s *Session) Close() error {
	s.fail(ErrSessionClosed)
	return nil
}

// Stream is one protocol exchange's message pipe within a Session. It
// implements Channel, so delegation and the request handlers run over it
// unchanged. A Stream is used by one exchange at a time.
type Stream struct {
	s *Session
	// id is the wire identifier. An initiating stream takes it when it
	// writes its first frame; until then it is 0.
	id uint32

	inbox chan []byte
	// ctx is the opener's context (Background on the accepting side).
	ctx context.Context

	// timeout bounds each ReadMessage (0 = only the session bounds it).
	timeout time.Duration
}

// SetMessageTimeout adjusts the per-message read budget for this stream.
func (st *Stream) SetMessageTimeout(d time.Duration) { st.timeout = d }

// WriteMessage sends one framed message on this stream.
//
//myproxy:hotpath
func (st *Stream) WriteMessage(payload []byte) error {
	return st.s.writeFrame(st, payload)
}

// ReadMessage receives the next message routed to this stream.
//
//myproxy:hotpath
func (st *Stream) ReadMessage() ([]byte, error) {
	var timeout <-chan time.Time
	if st.timeout > 0 {
		t := time.NewTimer(st.timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case payload := <-st.inbox:
		return payload, nil
	case <-st.s.done:
		return nil, st.s.Err()
	case <-st.ctx.Done():
		return nil, fmt.Errorf("gsi: stream %d: %w", st.id, st.ctx.Err())
	case <-timeout:
		return nil, fmt.Errorf("gsi: stream %d read timeout after %v", st.id, st.timeout)
	}
}

// Close releases the stream. The session and its other streams continue.
func (st *Stream) Close() error {
	st.s.release(st.id)
	return nil
}

// LocalCredential returns the session's authenticated credential.
func (st *Stream) LocalCredential() *pki.Credential { return st.s.conn.Local }

// PeerIdentity returns the Grid identity authenticated at session setup.
// Acceptors re-verify the chain per stream; the identity cannot change
// mid-session.
func (st *Stream) PeerIdentity() string { return st.s.conn.PeerIdentity() }

// RemoteAddr reports the session's remote network address.
func (st *Stream) RemoteAddr() net.Addr { return st.s.conn.RemoteAddr() }
