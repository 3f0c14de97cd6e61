// Package mss implements a GSI-protected mass storage system, the paper's
// canonical delegation consumer (§2.4: "a user's job that needs to be able
// to authenticate as the user to mass storage system to store the result of
// a long computation").
//
// The service authenticates clients over a GSI channel, maps the Grid
// identity to a local namespace with a gridmap, honors proxy policy
// restrictions (file-read/file-write operations), and stores objects
// per-account.
package mss

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"crypto/x509"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/proxy"
)

// Request is one storage operation.
type Request struct {
	Op   string `json:"op"` // "put", "get", "list", "delete"
	Name string `json:"name,omitempty"`
	Data []byte `json:"data,omitempty"`
}

// Reply is the server's answer.
type Reply struct {
	OK    bool     `json:"ok"`
	Error string   `json:"error,omitempty"`
	Data  []byte   `json:"data,omitempty"`
	Names []string `json:"names,omitempty"`
}

// Config configures a storage server.
type Config struct {
	Credential *pki.Credential
	Roots      *x509.CertPool
	// Gridmap maps client DNs to local accounts; unmapped identities are
	// refused (paper §2.1).
	Gridmap *gsi.Gridmap
	// MaxObjectBytes bounds one stored object (0 = 256 KiB).
	MaxObjectBytes int
	// SessionTimeout bounds one client session (0 = 30s).
	SessionTimeout time.Duration
}

// Server is an in-memory mass storage service.
type Server struct {
	cfg Config

	mu      sync.Mutex
	objects map[string]map[string][]byte // account -> name -> data

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}
	conns     sync.WaitGroup
	closed    bool
}

// NewServer builds a storage server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Credential == nil {
		return nil, errors.New("mss: credential required")
	}
	if cfg.Roots == nil {
		return nil, errors.New("mss: roots required")
	}
	if cfg.Gridmap == nil {
		return nil, errors.New("mss: gridmap required")
	}
	return &Server{
		cfg:       cfg,
		objects:   make(map[string]map[string][]byte),
		listeners: make(map[net.Listener]struct{}),
	}, nil
}

// Serve accepts sessions until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.lnMu.Unlock()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.handle(raw)
		}()
	}
}

// Close stops the server and waits for sessions to finish.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.lnMu.Unlock()
	s.conns.Wait()
	return nil
}

// Objects returns a snapshot of one account's stored object names (tests).
func (s *Server) Objects(account string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.objects[account] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Server) handle(raw net.Conn) {
	timeout := s.cfg.SessionTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := gsi.Server(raw, s.cfg.Credential, gsi.AuthOptions{
		Roots:            s.cfg.Roots,
		HandshakeTimeout: timeout,
	})
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	account, ok := s.cfg.Gridmap.Lookup(conn.PeerIdentity())
	if !ok {
		// Refuse in reply to the first request, not ahead of it: a refusal
		// followed by a close races the client's request write into a
		// broken pipe.
		if _, err := conn.ReadMessage(); err == nil {
			writeReply(conn, &Reply{Error: "identity not in gridmap"})
		}
		return
	}
	// One session may carry several operations.
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var req Request
		if err := json.Unmarshal(msg, &req); err != nil {
			writeReply(conn, &Reply{Error: "malformed request"})
			return
		}
		reply := s.dispatch(account, conn.Peer, &req)
		if err := writeReply(conn, reply); err != nil {
			return
		}
	}
}

func writeReply(conn *gsi.Conn, r *Reply) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return conn.WriteMessage(data)
}

func (s *Server) dispatch(account string, peer *proxy.Result, req *Request) *Reply {
	maxBytes := s.cfg.MaxObjectBytes
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	switch req.Op {
	case "put":
		// Writing requires the file-write right; limited proxies may
		// write (they are only barred from starting processes), but
		// restricted proxies must list the operation (paper §6.5).
		if !peer.Permits(proxy.OpFileWrite) {
			return &Reply{Error: "proxy policy forbids file-write"}
		}
		if req.Name == "" {
			return &Reply{Error: "object name required"}
		}
		if len(req.Data) > maxBytes {
			return &Reply{Error: fmt.Sprintf("object exceeds %d bytes", maxBytes)}
		}
		s.mu.Lock()
		if s.objects[account] == nil {
			s.objects[account] = make(map[string][]byte)
		}
		s.objects[account][req.Name] = append([]byte(nil), req.Data...)
		s.mu.Unlock()
		return &Reply{OK: true}
	case "get":
		if !peer.Permits(proxy.OpFileRead) {
			return &Reply{Error: "proxy policy forbids file-read"}
		}
		s.mu.Lock()
		data, ok := s.objects[account][req.Name]
		s.mu.Unlock()
		if !ok {
			return &Reply{Error: "no such object"}
		}
		return &Reply{OK: true, Data: append([]byte(nil), data...)}
	case "list":
		if !peer.Permits(proxy.OpFileRead) {
			return &Reply{Error: "proxy policy forbids file-read"}
		}
		return &Reply{OK: true, Names: s.Objects(account)}
	case "delete":
		if !peer.Permits(proxy.OpFileWrite) {
			return &Reply{Error: "proxy policy forbids file-write"}
		}
		s.mu.Lock()
		_, ok := s.objects[account][req.Name]
		delete(s.objects[account], req.Name)
		s.mu.Unlock()
		if !ok {
			return &Reply{Error: "no such object"}
		}
		return &Reply{OK: true}
	default:
		return &Reply{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// Client accesses a storage server with a Grid credential.
type Client struct {
	Credential     *pki.Credential
	Roots          *x509.CertPool
	Addr           string
	ExpectedServer string
	Timeout        time.Duration
	// DialContext overrides the transport dial (tests inject faults through
	// it; nil selects net.Dialer).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	conn *gsi.Conn
}

// timeout bounds the dial and handshake, and then each call.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c *Client) connection() (*gsi.Conn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	conn, err := gsi.Dial(ctx, c.DialContext, c.Addr, c.Credential, gsi.AuthOptions{
		Roots:            c.Roots,
		ExpectedPeer:     c.ExpectedServer,
		HandshakeTimeout: c.timeout(),
	})
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return conn, nil
}

// Close shuts the client's session down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) call(req *Request) (*Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, err := c.connection()
	if err != nil {
		return nil, err
	}
	msg, err := c.exchange(conn, req)
	if err != nil {
		// Close a connection that failed mid-call: left open, it keeps
		// the server's handler waiting on it.
		_ = conn.Close() // already failing; close is best-effort
		c.conn = nil
		return nil, err
	}
	var reply Reply
	if err := json.Unmarshal(msg, &reply); err != nil {
		return nil, err
	}
	if !reply.OK {
		return nil, fmt.Errorf("mss: %s", reply.Error)
	}
	return &reply, nil
}

// exchange sends req and reads the raw reply. Timeout bounds each call, so
// the deadline is armed afresh: on a long-lived client the one from an
// earlier call has long expired.
func (c *Client) exchange(conn *gsi.Conn, req *Request) ([]byte, error) {
	if err := conn.SetDeadline(time.Now().Add(c.timeout())); err != nil {
		return nil, fmt.Errorf("mss: arm deadline: %w", err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if err := conn.WriteMessage(data); err != nil {
		return nil, err
	}
	return conn.ReadMessage()
}

// Put stores an object under the caller's account.
func (c *Client) Put(name string, data []byte) error {
	_, err := c.call(&Request{Op: "put", Name: name, Data: data})
	return err
}

// Get fetches an object.
func (c *Client) Get(name string) ([]byte, error) {
	reply, err := c.call(&Request{Op: "get", Name: name})
	if err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// List names the caller's objects.
func (c *Client) List() ([]string, error) {
	reply, err := c.call(&Request{Op: "list"})
	if err != nil {
		return nil, err
	}
	return reply.Names, nil
}

// Delete removes an object.
func (c *Client) Delete(name string) error {
	_, err := c.call(&Request{Op: "delete", Name: name})
	return err
}
