package gram

import (
	"context"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/proxy"
)

// Client submits and manages jobs on a GRAM server, authenticating with a
// Grid (typically proxy) credential — the paper's §2.5 usage pattern.
type Client struct {
	Credential     *pki.Credential
	Roots          *x509.CertPool
	Addr           string
	ExpectedServer string
	Timeout        time.Duration
	// DelegationLifetime bounds proxies delegated to jobs (0 = 2h).
	DelegationLifetime time.Duration
	// DelegationType selects the proxy style for job delegation; the zero
	// value is proxy.RFC3820.
	DelegationType proxy.Type
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

// Close terminates the client's session.
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

func (c *Client) call(req *Request, delegate bool) (*Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, err := c.connection()
	if err != nil {
		return nil, err
	}
	msg, err := c.exchange(conn, req, delegate)
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
		return nil, fmt.Errorf("gram: %s", reply.Error)
	}
	return &reply, nil
}

// exchange sends req, delegates to the job when asked, and reads the raw
// reply. Timeout bounds each call, so the deadline is armed afresh: on a
// long-lived client the one from an earlier call has long expired.
func (c *Client) exchange(conn *gsi.Conn, req *Request, delegate bool) ([]byte, error) {
	if err := conn.SetDeadline(time.Now().Add(c.timeout())); err != nil {
		return nil, fmt.Errorf("gram: arm deadline: %w", err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if err := conn.WriteMessage(data); err != nil {
		return nil, err
	}
	if delegate {
		lifetime := c.DelegationLifetime
		if lifetime <= 0 {
			lifetime = 2 * time.Hour
		}
		if _, err := gsi.Delegate(conn, c.Credential, proxy.Options{
			Type:     c.DelegationType,
			Lifetime: lifetime,
		}); err != nil {
			return nil, fmt.Errorf("gram: delegate to job: %w", err)
		}
	}
	return conn.ReadMessage()
}

// Submit starts a job. With delegate true, a proxy credential is delegated
// to the job so it can act on the user's behalf unattended (paper §2.4).
func (c *Client) Submit(executable string, args []string, delegate bool) (*JobStatus, error) {
	reply, err := c.call(&Request{
		Op: "submit", Executable: executable, Args: args, Delegate: delegate,
	}, delegate)
	if err != nil {
		return nil, err
	}
	return reply.Job, nil
}

// SubmitRenewable starts a delegated job whose credential the manager keeps
// fresh from its configured MyProxy repository under renewUser (paper §6.6).
func (c *Client) SubmitRenewable(executable string, args []string, renewUser string) (*JobStatus, error) {
	reply, err := c.call(&Request{
		Op: "submit", Executable: executable, Args: args, Delegate: true, RenewUser: renewUser,
	}, true)
	if err != nil {
		return nil, err
	}
	return reply.Job, nil
}

// Status reports one job.
func (c *Client) Status(jobID string) (*JobStatus, error) {
	reply, err := c.call(&Request{Op: "status", JobID: jobID}, false)
	if err != nil {
		return nil, err
	}
	return reply.Job, nil
}

// List reports the caller's jobs.
func (c *Client) List() ([]JobStatus, error) {
	reply, err := c.call(&Request{Op: "list"}, false)
	if err != nil {
		return nil, err
	}
	return reply.Jobs, nil
}

// Cancel stops a job.
func (c *Client) Cancel(jobID string) (*JobStatus, error) {
	reply, err := c.call(&Request{Op: "cancel", JobID: jobID}, false)
	if err != nil {
		return nil, err
	}
	return reply.Job, nil
}

// Wait polls until the job reaches a terminal state or the timeout passes.
func (c *Client) Wait(jobID string, timeout time.Duration) (*JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(jobID)
		if err != nil {
			return nil, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("gram: job %s still %s at deadline", jobID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
