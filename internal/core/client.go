package core

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/gsi"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/resilience"
)

// Client talks to a MyProxy repository. It is the library under the
// myproxy-* command-line tools and the Grid portal (paper §4.4 describes the
// equivalent C and Java client APIs).
//
// Failure semantics: with a Retry policy configured, transient transport
// faults (refused connections, handshake resets, dropped reads) are retried
// with backoff. Idempotent operations — Get, Info, Retrieve — retry through
// any transport fault. Mutations — Put, Store, Destroy, ChangePassphrase —
// retry only faults that provably precede the commit point; a fault after
// the request may have committed surfaces as *resilience.AmbiguousError
// instead of being blindly replayed (replaying a DESTROY after a lost
// confirmation would report a spurious "not found"; replaying a PUT could
// overwrite a newer deposit). Definitive server verdicts (authorization
// failures, bad pass phrases, policy rejections) are never retried.
type Client struct {
	// Credential authenticates the client: the user's proxy for
	// myproxy-init, the portal's host credential for
	// myproxy-get-delegation (paper §4.3 step 2).
	Credential *pki.Credential
	// Roots are the trusted CAs for authenticating the repository.
	Roots *x509.CertPool
	// Addr is the repository's network address.
	Addr string
	// ExpectedServer optionally pins the repository identity (DN pattern);
	// strongly recommended (paper §5.1 mutual authentication).
	ExpectedServer string
	// KeyAlgorithm selects the algorithm for keys generated for incoming
	// delegations (and, via KEY_ALG, requested of the server for PUT); the
	// zero value is RSA, the paper-fidelity default.
	KeyAlgorithm pki.KeyAlgorithm
	// KeyBits sizes RSA keys generated for incoming delegations; 0 selects
	// pki.DefaultKeyBits. Ignored for non-RSA algorithms.
	KeyBits int
	// KeySource, when non-nil, supplies delegation key pairs (typically a
	// keypool.Pool shared across clients), taking RSA generation off the
	// request path. nil generates synchronously.
	KeySource proxy.KeySource
	// ProxyType selects the style of proxy delegated *to* the repository
	// by Put; the zero value selects proxy.RFC3820.
	ProxyType proxy.Type
	// Timeout bounds one attempt (0 = 30s).
	Timeout time.Duration
	// DialContext optionally overrides the transport dialer (tests,
	// simulation rigs, fault injection).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// Retry governs automatic retries of transient failures; the zero
	// value performs exactly one attempt.
	Retry resilience.Policy
	// Stats, when non-nil, receives the client-side resilience counters
	// (Retries, Ambiguous); share one Stats across clients to aggregate.
	Stats *Stats

	// Connection-establishment fast-path state, built once per Client on
	// first use: a TLS session cache (keyed per destination address) so
	// repeat connections resume instead of full-handshaking, and a chain
	// verification cache so the repository's unchanged credential chain is
	// not re-walked every operation. Both are transparent to semantics —
	// peer verification (including revocation) runs on every connection.
	connOnce    sync.Once
	tlsCfg      *tls.Config
	verifyCache *proxy.VerifyCache
	connErr     error
}

// keySpec assembles the delegation key spec from the client's settings.
func (c *Client) keySpec() pki.KeySpec {
	return pki.KeySpec{Algorithm: c.KeyAlgorithm, Bits: c.KeyBits}
}

// wireKeyAlg is the KEY_ALG request value: empty for RSA (legacy servers
// get a byte-identical request), the algorithm name otherwise.
func (c *Client) wireKeyAlg() string {
	if c.KeyAlgorithm == pki.AlgRSA {
		return ""
	}
	return c.KeyAlgorithm.String()
}

// ErrOTPRequired is returned (wrapped) when the repository demands a
// one-time password; the Challenge field carries the server's challenge.
type ErrOTPRequired struct{ Challenge string }

func (e *ErrOTPRequired) Error() string {
	return fmt.Sprintf("myproxy server requires one-time password (challenge %q)", e.Challenge)
}

// do runs one operation attempt function under the retry policy, wiring the
// client's counters into the policy's observer.
func (c *Client) do(ctx context.Context, fn func(ctx context.Context) error) error {
	pol := c.Retry
	prev := pol.OnRetry
	pol.OnRetry = func(attempt int, err error, backoff time.Duration) {
		if c.Stats != nil {
			c.Stats.Retries.Add(1)
		}
		if prev != nil {
			prev(attempt, err, backoff)
		}
	}
	err := pol.Do(ctx, fn)
	if err != nil && c.Stats != nil && resilience.IsAmbiguous(err) {
		c.Stats.Ambiguous.Add(1)
	}
	return err
}

// ambiguous marks a transport fault in a mutation's commit window, leaving
// definitive server verdicts (already Permanent) untouched.
func ambiguous(op string, err error) error {
	if err == nil || resilience.IsPermanent(err) {
		return err
	}
	return resilience.Ambiguous(op, err)
}

// clientConn couples a GSI channel to the operation context: cancelling the
// context aborts in-flight I/O (not just dialing) by slamming the deadline.
type clientConn struct {
	*gsi.Conn
	stop func() bool // stops watching the context
}

func (cc *clientConn) Close() error {
	cc.stop()
	return cc.Conn.Close()
}

func (c *Client) connect(ctx context.Context) (*clientConn, error) {
	if c.Credential == nil {
		return nil, resilience.Permanent(errors.New("core: client requires a credential"))
	}
	if c.Roots == nil {
		return nil, resilience.Permanent(errors.New("core: client requires trust roots"))
	}
	c.connOnce.Do(func() {
		c.tlsCfg, c.connErr = gsi.NewClientTLSConfig(c.Credential, tls.NewLRUClientSessionCache(0))
		c.verifyCache = proxy.NewVerifyCache(0)
	})
	if c.connErr != nil {
		return nil, resilience.Permanent(c.connErr)
	}
	timeout := c.timeout()
	conn, err := gsi.Dial(ctx, c.DialContext, c.Addr, c.Credential, gsi.AuthOptions{
		Roots:            c.Roots,
		ExpectedPeer:     c.ExpectedServer,
		HandshakeTimeout: timeout,
		Cache:            c.verifyCache,
		TLSConfig:        c.tlsCfg,
	})
	if err != nil {
		return nil, err
	}
	// The whole operation — not just the dial — respects the context: the
	// deadline is the earlier of the per-attempt timeout and the context's,
	// and an outright cancellation aborts in-flight I/O immediately.
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0)) // wake any blocked read/write
	})
	return &clientConn{Conn: conn, stop: stop}, nil
}

// timeout is the per-attempt bound.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

// exchange runs fn, one attempt of an operation, under the retry policy.
// Each attempt gets its own channel: a new stream of mux when the caller
// holds a multiplexed session, otherwise a fresh connection. Either way the
// attempt's context bounds the channel's I/O.
func (c *Client) exchange(ctx context.Context, mux *gsi.Session, fn func(ch gsi.Channel) error) error {
	return c.do(ctx, func(ctx context.Context) error {
		if mux != nil {
			st, err := mux.Open(ctx)
			if err != nil {
				return resilience.Permanent(err) // a failed session stays failed
			}
			defer st.Close()
			return fn(st)
		}
		conn, err := c.connect(ctx)
		if err != nil {
			return err
		}
		defer conn.Close()
		return fn(conn.Conn)
	})
}

// withOTP runs op and, when the repository demands a one-time password the
// caller can compute (a secret but no answer yet), answers the challenge
// into *answer and runs op once more (paper §6.3).
func withOTP[T any](answer *string, secret string, op func() (T, error)) (T, error) {
	v, err := op()
	var challenge *ErrOTPRequired
	if err == nil || secret == "" || *answer != "" || !errors.As(err, &challenge) {
		return v, err
	}
	if *answer, err = otp.Respond(challenge.Challenge, secret); err != nil {
		return v, err
	}
	return op()
}

// roundTrip sends req and reads the server's verdict. Server-side verdicts
// (error responses, OTP challenges) are Permanent — retrying cannot change
// them. Transport faults while *reading* the response are ambiguous for
// mutations (commitOp != ""): the server saw the request and may have
// committed before the confirmation was lost.
func (c *Client) roundTrip(conn gsi.Channel, req *protocol.Request, commitOp string) (*protocol.Response, error) {
	data, err := protocol.MarshalRequest(req)
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	if err := conn.WriteMessage(data); err != nil {
		return nil, err
	}
	respData, err := conn.ReadMessage()
	if err != nil {
		err = fmt.Errorf("core: read response: %w", err)
		if commitOp != "" {
			return nil, resilience.Ambiguous(commitOp, err)
		}
		return nil, err
	}
	resp, err := protocol.ParseResponse(respData)
	if err != nil {
		if commitOp != "" {
			return nil, resilience.Ambiguous(commitOp, err)
		}
		return nil, err
	}
	if resp.Code == protocol.RespAuthRequired {
		return nil, resilience.Permanent(&ErrOTPRequired{Challenge: resp.Challenge})
	}
	if rerr := resp.Err(); rerr != nil {
		return resp, resilience.Permanent(rerr)
	}
	return resp, nil
}

// readFinal consumes the post-delegation confirmation.
func (c *Client) readFinal(conn gsi.Channel) error {
	respData, err := conn.ReadMessage()
	if err != nil {
		return fmt.Errorf("core: read final response: %w", err)
	}
	resp, err := protocol.ParseResponse(respData)
	if err != nil {
		return err
	}
	if rerr := resp.Err(); rerr != nil {
		return resilience.Permanent(rerr)
	}
	return nil
}

// PutOptions parameterizes Put (myproxy-init, paper Fig. 1).
type PutOptions struct {
	Username   string
	Passphrase string
	// Lifetime of the credential delegated to the repository; 0 selects
	// the one-week default (paper §4.1).
	Lifetime time.Duration
	// CredName names the credential (wallet, §6.2); empty = default.
	CredName    string
	Description string
	// Retrievers narrows which DNs may later retrieve this credential.
	Retrievers string
	// MaxDelegation caps proxies the repository may delegate from this
	// credential (the §4.1 retrieval restriction).
	MaxDelegation time.Duration
	// TaskTags label the credential for wallet selection (§6.2).
	TaskTags []string
	// Renewable deposits the credential without a pass phrase so that
	// authorized renewers can refresh long-running jobs (paper §6.6);
	// Passphrase must be empty.
	Renewable bool
}

// Put delegates a proxy of the client's credential to the repository under
// (Username, Passphrase): the myproxy-init operation of paper Figure 1.
// Failures before the delegation starts are retried under the Retry policy;
// once the delegation is in flight the deposit may commit server-side, so
// later faults surface as *resilience.AmbiguousError.
func (c *Client) Put(ctx context.Context, opts PutOptions) error {
	lifetime := opts.Lifetime
	if lifetime <= 0 {
		lifetime = 7 * 24 * time.Hour
	}
	req := &protocol.Request{
		Command:       protocol.CmdPut,
		Username:      opts.Username,
		Passphrase:    opts.Passphrase,
		Lifetime:      lifetime,
		CredName:      opts.CredName,
		Description:   opts.Description,
		Retrievers:    opts.Retrievers,
		MaxDelegation: opts.MaxDelegation,
		TaskTags:      opts.TaskTags,
		Renewable:     opts.Renewable,
		KeyAlg:        c.wireKeyAlg(),
	}
	return c.exchange(ctx, nil, func(ch gsi.Channel) error {
		// The first response precedes any server-side state change: failures
		// up to here are retry-safe.
		if _, err := c.roundTrip(ch, req, ""); err != nil {
			return err
		}
		// Commit window: the server stores the credential when the
		// delegation completes, so a fault from here on leaves the outcome
		// unknown.
		if _, err := gsi.Delegate(ch, c.Credential, proxy.Options{
			Type:     c.ProxyType,
			Lifetime: lifetime,
		}); err != nil {
			return ambiguous("PUT", fmt.Errorf("core: delegate to repository: %w", err))
		}
		return ambiguous("PUT", c.readFinal(ch))
	})
}

// GetOptions parameterizes Get (myproxy-get-delegation, paper Fig. 2).
type GetOptions struct {
	Username   string
	Passphrase string
	// Lifetime of the proxy requested back; 0 selects the server default
	// ("a few hours", paper §4.3).
	Lifetime time.Duration
	// CredName selects a named credential; TaskHint asks the wallet to
	// choose one (§6.2).
	CredName string
	TaskHint string
	// OTP answers a one-time-password challenge (§6.3). Leave empty on the
	// first attempt; if the server requires OTP, Get returns
	// *ErrOTPRequired carrying the challenge, or use OTPSecret to answer
	// automatically.
	OTP string
	// OTPSecret, when non-empty, computes OTP responses from the secret
	// pass phrase transparently on challenge.
	OTPSecret string
	// Renewal requests a pass-phrase-less renewal of a renewable
	// credential (paper §6.6); the client must authenticate with a proxy
	// of the stored credential's own identity.
	Renewal bool
}

// Get retrieves a delegated proxy credential from the repository: the
// myproxy-get-delegation operation of paper Figure 2. Get is idempotent and
// retries any transient fault under the Retry policy.
func (c *Client) Get(ctx context.Context, opts GetOptions) (*pki.Credential, error) {
	return c.get(ctx, nil, opts)
}

// get is Get with each attempt on a stream of mux, or on a fresh connection
// when mux is nil.
func (c *Client) get(ctx context.Context, mux *gsi.Session, opts GetOptions) (*pki.Credential, error) {
	return withOTP(&opts.OTP, opts.OTPSecret, func() (*pki.Credential, error) {
		req := &protocol.Request{
			Command:    protocol.CmdGet,
			Username:   opts.Username,
			Passphrase: opts.Passphrase,
			Lifetime:   opts.Lifetime,
			CredName:   opts.CredName,
			TaskHint:   opts.TaskHint,
			OTP:        opts.OTP,
			Renewal:    opts.Renewal,
		}
		var cred *pki.Credential
		err := c.exchange(ctx, mux, func(ch gsi.Channel) (err error) {
			if _, err = c.roundTrip(ch, req, ""); err != nil {
				return err
			}
			if cred, err = gsi.RequestDelegationFrom(ch, c.KeySource, c.keySpec(), c.Roots); err != nil {
				return fmt.Errorf("core: receive delegation: %w", err)
			}
			return c.readFinal(ch)
		})
		if err != nil {
			return nil, err
		}
		return cred, nil
	})
}

// Info lists the credentials stored under username that the pass phrase
// authenticates (myproxy-info). Info is idempotent and retries transient
// faults.
func (c *Client) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	return c.info(ctx, nil, username, passphrase)
}

// info is Info on a stream of mux, or on a fresh connection when mux is nil.
func (c *Client) info(ctx context.Context, mux *gsi.Session, username, passphrase string) ([]protocol.CredInfo, error) {
	req := &protocol.Request{Command: protocol.CmdInfo, Username: username, Passphrase: passphrase}
	var infos []protocol.CredInfo
	err := c.exchange(ctx, mux, func(ch gsi.Channel) error {
		resp, err := c.roundTrip(ch, req, "")
		if err != nil {
			return err
		}
		infos = resp.Infos
		return nil
	})
	if err != nil {
		return nil, err
	}
	return infos, nil
}

// Destroy removes a stored credential (myproxy-destroy, paper §4.1).
// Connection and request-send failures are retried; a fault after the
// request was delivered is ambiguous (the credential may already be gone)
// and surfaces as *resilience.AmbiguousError.
func (c *Client) Destroy(ctx context.Context, username, passphrase, credName string) error {
	req := &protocol.Request{
		Command: protocol.CmdDestroy, Username: username, Passphrase: passphrase, CredName: credName,
	}
	return c.exchange(ctx, nil, func(ch gsi.Channel) error {
		_, err := c.roundTrip(ch, req, "DESTROY")
		return err
	})
}

// ChangePassphrase re-seals a stored credential under a new pass phrase
// (myproxy-change-passphrase). Same commit semantics as Destroy: only
// pre-delivery faults retry.
func (c *Client) ChangePassphrase(ctx context.Context, username, oldPass, newPass, credName string) error {
	req := &protocol.Request{
		Command: protocol.CmdChangePassphrase, Username: username,
		Passphrase: oldPass, NewPassphrase: newPass, CredName: credName,
	}
	return c.exchange(ctx, nil, func(ch gsi.Channel) error {
		_, err := c.roundTrip(ch, req, "CHANGE_PASSPHRASE")
		return err
	})
}

// StoreOptions parameterizes Store (myproxy-store, paper §6.1).
type StoreOptions struct {
	Username   string
	Passphrase string
	CredName   string
	// Credential is the long-term credential to deposit. It is sealed
	// client-side under the pass phrase; the repository never sees the
	// plaintext private key.
	Credential  *pki.Credential
	Description string
	Retrievers  string
	TaskTags    []string
}

// Store seals a long-term credential client-side and deposits the opaque
// container in the repository (paper §6.1: "managing long-term Grid
// credentials on the user's behalf"). Failures before the sealed blob is
// sent are retried; afterwards the deposit may have committed and faults
// surface as *resilience.AmbiguousError.
func (c *Client) Store(ctx context.Context, opts StoreOptions) error {
	if opts.Credential == nil {
		return errors.New("core: Store requires a credential")
	}
	plainPEM := opts.Credential.EncodePEM()
	blob, err := pki.SealBytes(plainPEM, []byte(opts.Passphrase), 0)
	pki.WipeBytes(plainPEM) // sealed; drop the plaintext encoding
	if err != nil {
		return err
	}
	req := &protocol.Request{
		Command:     protocol.CmdStore,
		Username:    opts.Username,
		Passphrase:  opts.Passphrase,
		CredName:    opts.CredName,
		Description: opts.Description,
		Retrievers:  opts.Retrievers,
		TaskTags:    opts.TaskTags,
	}
	return c.exchange(ctx, nil, func(ch gsi.Channel) error {
		if _, err := c.roundTrip(ch, req, ""); err != nil {
			return err
		}
		// Commit window: the server stores the blob when it arrives.
		if err := ch.WriteMessage(blob); err != nil {
			return ambiguous("STORE", err)
		}
		return ambiguous("STORE", c.readFinal(ch))
	})
}

// RetrieveOptions parameterizes Retrieve (myproxy-retrieve, paper §6.1).
type RetrieveOptions struct {
	Username   string
	Passphrase string
	CredName   string
	TaskHint   string
	OTP        string
	OTPSecret  string
}

// Retrieve downloads and unseals a long-term credential deposited with
// Store. Unsealing happens client-side with the pass phrase. Retrieve is
// idempotent and retries any transient fault.
func (c *Client) Retrieve(ctx context.Context, opts RetrieveOptions) (*pki.Credential, error) {
	return withOTP(&opts.OTP, opts.OTPSecret, func() (*pki.Credential, error) {
		req := &protocol.Request{
			Command:    protocol.CmdRetrieve,
			Username:   opts.Username,
			Passphrase: opts.Passphrase,
			CredName:   opts.CredName,
			TaskHint:   opts.TaskHint,
			OTP:        opts.OTP,
		}
		var blob []byte
		err := c.exchange(ctx, nil, func(ch gsi.Channel) error {
			resp, err := c.roundTrip(ch, req, "")
			if err != nil {
				return err
			}
			blob = resp.Blob
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The blob arrived intact over TLS; a bad unseal is a bad pass
		// phrase or corrupt deposit, not a transport fault, so it is
		// checked once, outside the retry loop.
		plain, err := pki.OpenBytes(blob, []byte(opts.Passphrase))
		if err != nil {
			return nil, err
		}
		cred, err := pki.DecodeCredentialPEM(plain, nil)
		pki.WipeBytes(plain) // decoded into cred; drop the plaintext PEM
		if err != nil {
			return nil, err
		}
		return cred, nil
	})
}
