package main

import (
	"context"
	"crypto"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/credstore"
	"repro/internal/pki"
	"repro/internal/proxy"
)

// span is one timed call at a layer seam. Operation spans are roots whose
// ID is also the request id; the seam spans inside an operation name it as
// Parent and Req. Server-side seam spans carry the username they were
// called with, which is how they are attributed to the operation: every
// workload gives each closed-loop client a disjoint set of users, so at
// most one operation per username is in flight.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	User   string `json:"user,omitempty"`
	// Peer is the address a dial span connected to.
	Peer  string `json:"peer,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Calls is how many identical calls a direct-layer span times in one
	// batch (calls too short to time one at a time); 0 means 1.
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// While it is off, every seam wrapper is a plain pass-through.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu sync.Mutex
	//myproxy:guardedby mu
	spans []span

	// owner maps a username to the client that owns it; read-only after
	// set-up.
	owner map[string]*worker

	// Seam counters, advanced only while tracing is on.
	dials   atomic.Int64
	ioCalls atomic.Int64
	bytes   atomic.Int64

	capMu sync.Mutex
	//myproxy:guardedby capMu
	captured []*credstore.Entry
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), owner: map[string]*worker{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// parentOf returns the operation the owning client of username has in
// flight (0 when none is traced).
func (t *tracer) parentOf(username string) uint64 {
	if w := t.owner[username]; w != nil {
		return w.curOp.Load()
	}
	return 0
}

// seam records one call of name around fn, parented to parent. Wrappers
// call it only while tracing is on and call straight through otherwise, so
// an untraced run pays no closure or span allocation.
func (t *tracer) seam(name string, parent uint64, user string, fn func()) {
	s := span{Name: name, ID: t.newID(), Parent: parent, Req: parent, User: user, Start: t.now()}
	fn()
	s.End = t.now()
	t.record(s)
}

// tracedKeys wraps a proxy.KeySource: the key-supply seam. A client-side
// wrapper belongs to one closed-loop client and parents its spans to that
// client's operation; the server-side one has no request to attach to
// (gsi passes no context into key supply), so its spans are roots.
type tracedKeys struct {
	src  proxy.KeySource
	tr   *tracer
	name string
	w    *worker // nil on the server side
}

func (k *tracedKeys) Get(ctx context.Context, spec pki.KeySpec) (crypto.Signer, error) {
	if !k.tr.on.Load() {
		return k.src.Get(ctx, spec)
	}
	var key crypto.Signer
	var err error
	var parent uint64
	if k.w != nil {
		parent = k.w.curOp.Load()
	}
	k.tr.seam(k.name, parent, "", func() { key, err = k.src.Get(ctx, spec) })
	return key, err
}

// tracedStore wraps a credstore.Backend, the store seam of one repository.
type tracedStore struct {
	b  credstore.Backend
	tr *tracer
}

var _ credstore.Backend = (*tracedStore)(nil)

func (s *tracedStore) Put(e *credstore.Entry) error {
	if !s.tr.on.Load() {
		return s.b.Put(e)
	}
	var err error
	s.tr.seam("credstore.put", s.tr.parentOf(e.Username), e.Username, func() { err = s.b.Put(e) })
	return err
}

func (s *tracedStore) Get(username, name string) (*credstore.Entry, error) {
	if !s.tr.on.Load() {
		return s.b.Get(username, name)
	}
	var e *credstore.Entry
	var err error
	s.tr.seam("credstore.get", s.tr.parentOf(username), username, func() { e, err = s.b.Get(username, name) })
	if err == nil {
		s.tr.capture(e)
	}
	return e, err
}

func (s *tracedStore) List(username string) ([]*credstore.Entry, error) {
	if !s.tr.on.Load() {
		return s.b.List(username)
	}
	var es []*credstore.Entry
	var err error
	s.tr.seam("credstore.list", s.tr.parentOf(username), username, func() { es, err = s.b.List(username) })
	return es, err
}

func (s *tracedStore) Delete(username, name string) error {
	if !s.tr.on.Load() {
		return s.b.Delete(username, name)
	}
	var err error
	s.tr.seam("credstore.delete", s.tr.parentOf(username), username, func() { err = s.b.Delete(username, name) })
	return err
}

func (s *tracedStore) Usernames() ([]string, error) { return s.b.Usernames() }

// maxCaptured bounds the sealed entries kept for the direct unseal calls.
const maxCaptured = 8

func (t *tracer) capture(e *credstore.Entry) {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	if len(t.captured) < maxCaptured {
		t.captured = append(t.captured, e.Clone())
	}
}

func (t *tracer) capturedEntries() []*credstore.Entry {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	return append([]*credstore.Entry(nil), t.captured...)
}

// dialer returns the DialContext a client of w uses: the TCP connect is the
// dial seam, and the connection it returns counts its I/O calls and bytes.
func (t *tracer) dialer(w *worker) func(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		if !t.on.Load() {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, tr: t}, nil
		}
		parent := w.curOp.Load()
		s := span{Name: "gsi.dial", ID: t.newID(), Parent: parent, Req: parent, Peer: addr, Start: t.now()}
		c, err := d.DialContext(ctx, network, addr)
		s.End = t.now()
		t.record(s)
		if err != nil {
			return nil, err
		}
		t.dials.Add(1)
		return &countingConn{Conn: c, tr: t}, nil
	}
}

// countingConn counts Read and Write calls and bytes while tracing is on.
type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.on.Load() {
		c.tr.ioCalls.Add(1)
		c.tr.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.on.Load() {
		c.tr.ioCalls.Add(1)
		c.tr.bytes.Add(int64(n))
	}
	return n, err
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, keyed by span ID.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// checkSpans checks the trace's shape: every parent exists, every child
// lies inside its parent, and no self time is negative.
func checkSpans(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s #%d ends before it starts", s.Name, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s #%d has no parent #%d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s #%d [%d,%d] lies outside its parent %s #%d [%d,%d]",
				s.Name, s.ID, s.Start, s.End, p.Name, p.ID, p.Start, p.End)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span #%d has negative self time %v", id, d)
		}
	}
	return nil
}
