package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// serveSession runs one client conversation on an authenticated channel:
// either a single request/response exchange (plus any delegation the
// command implies), or — on a SESSION request — a multiplexed session
// pipelining many such exchanges over the one connection.
//
//myproxy:hotpath
func (s *Server) serveSession(conn *gsi.Conn) error {
	reqData, err := conn.ReadMessage()
	if err != nil {
		return fmt.Errorf("read request: %w", err)
	}
	req, err := protocol.ParseRequest(reqData)
	if err != nil {
		s.respond(conn, protocol.ErrorResponse("malformed request: %v", err))
		return err
	}
	if req.Command == protocol.CmdSession {
		return s.serveMultiplexed(conn)
	}
	return s.dispatch(conn, req, nil)
}

// dispatch routes one parsed request to its handler. The channel may be a
// whole connection or one stream of a multiplexed session; the handlers
// cannot tell the difference beyond the session's unseal cache (nil for a
// single-exchange connection).
//
//myproxy:hotpath
func (s *Server) dispatch(conn gsi.Channel, req *protocol.Request, sc *unsealCache) error {
	peer := conn.PeerIdentity()
	s.cfg.logf("%s %s username=%q cred=%q from %v", peer, req.Command, req.Username, req.CredName, conn.RemoteAddr())

	switch req.Command {
	case protocol.CmdPut:
		return s.handlePut(conn, req)
	case protocol.CmdGet:
		return s.handleGet(conn, req, sc)
	case protocol.CmdInfo:
		return s.handleInfo(conn, req)
	case protocol.CmdDestroy:
		return s.handleDestroy(conn, req)
	case protocol.CmdChangePassphrase:
		return s.handleChangePassphrase(conn, req)
	case protocol.CmdStore:
		return s.handleStore(conn, req)
	case protocol.CmdRetrieve:
		return s.handleRetrieve(conn, req)
	case protocol.CmdSession:
		// SESSION is only valid as a connection's first exchange
		// (serveSession handles it there); nesting sessions in streams is
		// refused.
		s.respond(conn, protocol.ErrorResponse("SESSION not valid here"))
		return errors.New("nested SESSION request")
	default:
		s.respond(conn, protocol.ErrorResponse("unsupported command %s", req.Command))
		return fmt.Errorf("unsupported command %d", int(req.Command))
	}
}

func (s *Server) respond(conn gsi.Channel, resp *protocol.Response) error {
	return conn.WriteMessage(protocol.MarshalResponse(resp))
}

// failf logs, counts, and sends an error response. The client-visible text
// is deliberately generic for authentication failures to avoid oracle
// behavior; detail goes to the audit log.
func (s *Server) failf(conn gsi.Channel, public string, format string, args ...interface{}) error {
	s.cfg.logf("DENIED %s: %s", conn.PeerIdentity(), fmt.Sprintf(format, args...))
	s.stats.AuthFailures.Add(1)
	return s.respond(conn, protocol.ErrorResponse("%s", public))
}

const (
	deniedMsg    = "authorization failed"
	notFoundMsg  = "no credentials found for user"
	badPhraseMsg = "bad pass phrase or username"
)

// --- SESSION: multiplexed pipelined exchanges over one connection ---

// unsealCache is a session-scoped cache of unsealed credentials. The
// streams of one multiplexed session typically repeat the same
// (username, pass phrase) exchange back to back — the pattern session
// mode exists for — and the sealing KDF (deliberately slow, paper §5.1)
// would otherwise dominate every pipelined get. The cache key binds the
// exact sealed bytes to the pass phrase, so a reseal, pass-phrase
// change, or replacement PUT changes the key and misses naturally.
//
// Security posture: every policy gate (ACLs, per-credential retriever
// lists, OTP, expiry, and the per-stream revocation re-check) still runs
// on every stream; only the KDF-and-decrypt step is skipped. Plaintext
// keys live no longer than they would in a client that held the session
// open — the life of one authenticated connection, capped by
// SessionTimeout — and are wiped when the session ends, so §5.1's
// at-rest property is unchanged.
type unsealCache struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*pki.Credential
}

func unsealKey(e *credstore.Entry, passphrase []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(e.SealedKey)
	h.Write([]byte{0})
	h.Write(passphrase)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// lookup returns the cached unsealed credential, or nil. Nil-receiver
// safe: a single-exchange connection has no cache.
//
//myproxy:hotpath
func (c *unsealCache) lookup(e *credstore.Entry, passphrase []byte) *pki.Credential {
	if c == nil {
		return nil
	}
	// Hash outside the critical section (mirroring add): SHA-256 over the
	// sealed key is the expensive part, and every stream of the session
	// serializes on this mutex.
	k := unsealKey(e, passphrase)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// add caches cred unless another stream raced it in first; it reports
// whether cred is now owned by the cache (and must not be dropped by the
// caller). Nil-receiver safe.
//
//myproxy:hotpath
func (c *unsealCache) add(e *credstore.Entry, passphrase []byte, cred *pki.Credential) bool {
	if c == nil {
		return false
	}
	k := unsealKey(e, passphrase)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return false
	}
	if c.m == nil {
		c.m = make(map[[sha256.Size]byte]*pki.Credential)
	}
	c.m[k] = cred
	return true
}

// wipe zeroizes every cached private key; the session is over.
func (c *unsealCache) wipe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, cred := range c.m {
		pki.WipeSigner(cred.PrivateKey)
		cred.PrivateKey = nil
		delete(c.m, k)
	}
}

// serveMultiplexed upgrades the connection to session mode: the client
// opens one stream per protocol exchange and the streams proceed
// concurrently, sharing the single TLS handshake already paid. The peer
// chain is re-verified (through the verify cache, which re-checks
// revocation on every hit and is invalidated by SetRevoked) before each
// stream is served, so a CRL reload refuses a revoked peer on the very
// next operation of an already-open session.
//
//myproxy:hotpath
func (s *Server) serveMultiplexed(conn *gsi.Conn) error {
	if s.cfg.DisableSessions {
		// A refusal here is the downgrade signal: the client falls back to
		// one connection per exchange, exactly what a pre-session server's
		// "unsupported command" answer produces.
		return s.respond(conn, protocol.ErrorResponse("session mode not supported"))
	}
	timeout := s.cfg.SessionTimeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	if err := s.respond(conn, protocol.OKResponse()); err != nil {
		return err
	}
	// Per-message deadlines belong to the one-exchange mode; a session is
	// capped absolutely instead (armDeadline is disarmed by the Session).
	if err := conn.SetDeadline(s.cfg.now().Add(timeout)); err != nil {
		return err
	}
	s.stats.Sessions.Add(1)
	sess := gsi.NewServerSession(conn)
	defer sess.Close()
	sc := &unsealCache{}
	defer sc.wipe()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		st, err := sess.Accept()
		if err != nil {
			// The client closed the connection or the session cap expired —
			// the normal end of a session, not a server fault.
			s.cfg.logf("session with %s ended: %v", conn.PeerIdentity(), err)
			return nil
		}
		if _, err := s.verifyCache.Verify(conn.PeerChain(), proxy.VerifyOptions{
			Roots: s.cfg.Roots, MaxDepth: s.cfg.MaxChainDepth, IsRevoked: s.revocationHook(),
		}); err != nil {
			s.stats.AuthFailures.Add(1)
			s.respond(st, protocol.ErrorResponse(deniedMsg))
			return fmt.Errorf("session peer %s no longer authorized: %w", conn.PeerIdentity(), err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			s.serveStream(st, sc)
		}()
	}
}

// serveStream runs one protocol exchange on one session stream.
//
//myproxy:hotpath
func (s *Server) serveStream(st *gsi.Stream, sc *unsealCache) {
	s.stats.Streams.Add(1)
	reqData, err := st.ReadMessage()
	if err != nil {
		return // stream abandoned; the session-level accounting covers it
	}
	req, err := protocol.ParseRequest(reqData)
	if err != nil {
		s.respond(st, protocol.ErrorResponse("malformed request: %v", err))
		return
	}
	if err := s.dispatch(st, req, sc); err != nil {
		s.stats.Errors.Add(1)
		s.cfg.logf("stream with %s: %v", st.PeerIdentity(), err)
	}
}

// --- PUT: myproxy-init (paper Fig. 1) ---

func (s *Server) handlePut(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	if !s.cfg.AcceptedCredentials.Allows(peer) {
		return s.failf(conn, deniedMsg, "PUT by %s not in accepted_credentials", peer)
	}
	// Renewable credentials (paper §6.6) are deposited without a pass
	// phrase so authorized renewers can refresh long-running jobs; they
	// are sealed under the empty pass phrase (the myproxy-init -n
	// trade-off). Everything else must pass the quality policy.
	if req.Renewable && req.Passphrase != "" {
		return s.respond(conn, protocol.ErrorResponse("renewable credentials take no pass phrase"))
	}
	if !req.Renewable {
		if err := s.cfg.Passphrase.Check(req.Passphrase); err != nil {
			// Pass-phrase policy violations are safe (and useful) to surface.
			s.cfg.logf("DENIED %s: weak pass phrase: %v", peer, err)
			return s.respond(conn, protocol.ErrorResponse("pass phrase rejected: %v", err))
		}
	}
	// The server generates the key pair for an imported credential, by
	// default with its configured algorithm; the client may request another
	// via KEY_ALG (keyspec negotiation, PROTOCOL.md). An unparseable value
	// is refused before any state changes.
	spec := pki.KeySpec{Algorithm: s.cfg.DelegationKeyAlgorithm, Bits: s.cfg.DelegationKeyBits}
	if req.KeyAlg != "" {
		alg, err := pki.ParseKeyAlgorithm(req.KeyAlg)
		if err != nil {
			s.cfg.logf("DENIED %s: %v", peer, err)
			return s.respond(conn, protocol.ErrorResponse("unsupported key algorithm %q", req.KeyAlg))
		}
		spec.Algorithm = alg
	}
	lifetime := s.cfg.Lifetimes.ClampStored(req.Lifetime)
	if err := s.respond(conn, protocol.OKResponse()); err != nil {
		return err
	}
	// Import the credential: the client is the exporter, so the private
	// key is generated here — drawn from the background pool when one is
	// configured — and never crosses the wire.
	cred, err := gsi.RequestDelegationFrom(conn, s.cfg.KeySource, spec, s.cfg.Roots)
	if err != nil {
		s.respond(conn, protocol.ErrorResponse("delegation failed: %v", err))
		return fmt.Errorf("PUT delegation from %s: %w", peer, err)
	}
	// The delegated chain must carry the authenticated peer's identity:
	// clients may only deposit their own credentials. The chain's leaf is
	// freshly minted, so this verification is never cache-served.
	res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{
		Roots: s.cfg.Roots, MaxDepth: s.cfg.MaxChainDepth, IsRevoked: s.revocationHook(),
	})
	if err != nil {
		s.respond(conn, protocol.ErrorResponse("delegated chain invalid: %v", err))
		return err
	}
	if res.IdentityString() != peer {
		s.respond(conn, protocol.ErrorResponse("delegated identity does not match authenticated identity"))
		return fmt.Errorf("PUT identity mismatch: chain %s, peer %s", res.IdentityString(), peer)
	}
	// Enforce the stored-lifetime policy: the client signs the proxy, so
	// the server verifies rather than dictates (slack for clock skew).
	if remaining := cred.TimeLeftAt(s.cfg.now()); remaining > lifetime+10*time.Minute {
		s.respond(conn, protocol.ErrorResponse(
			"delegated lifetime %v exceeds server maximum %v", remaining.Round(time.Minute), lifetime))
		return fmt.Errorf("PUT lifetime %v exceeds policy %v", remaining, lifetime)
	}

	entry := &credstore.Entry{
		Username:      req.Username,
		Name:          req.CredName,
		Owner:         peer,
		Description:   req.Description,
		Retrievers:    req.Retrievers,
		MaxDelegation: req.MaxDelegation,
		TaskTags:      req.TaskTags,
		Renewable:     req.Renewable,
		CreatedAt:     s.cfg.now(),
	}
	// Replacing an existing credential requires owning it.
	if prev, err := s.store.Get(req.Username, req.CredName); err == nil && prev.Owner != peer {
		s.respond(conn, protocol.ErrorResponse("credential exists and is owned by another identity"))
		return fmt.Errorf("PUT overwrite of %s/%s by non-owner %s", req.Username, req.CredName, peer)
	}
	if err := credstore.SealDelegated(entry, cred, []byte(req.Passphrase), s.cfg.KDFIterations); err != nil {
		s.respond(conn, protocol.ErrorResponse("could not seal credential"))
		return err
	}
	// Drop the plaintext key immediately (paper §5.1): the entry now holds
	// only the sealed form.
	cred.PrivateKey = nil
	if err := s.store.Put(entry); err != nil {
		s.respond(conn, protocol.ErrorResponse("could not store credential"))
		return err
	}
	s.stats.Puts.Add(1)
	s.cfg.logf("STORED %q/%q for %s until %v", req.Username, req.CredName, peer, entry.NotAfter)
	return s.respond(conn, protocol.OKResponse())
}

// --- GET: myproxy-get-delegation (paper Fig. 2) ---

//myproxy:hotpath
func (s *Server) handleGet(conn gsi.Channel, req *protocol.Request, sc *unsealCache) error {
	if req.Renewal {
		return s.handleRenewal(conn, req)
	}
	peer := conn.PeerIdentity()
	if !s.cfg.AuthorizedRetrievers.Allows(peer) {
		return s.failf(conn, deniedMsg, "GET by %s not in authorized_retrievers", peer)
	}
	// One-time-password gate (paper §6.3): if the user is enrolled, a
	// valid, fresh OTP response is required in addition to the pass phrase
	// (the pass phrase still unseals the stored key; the OTP defeats
	// replay of a captured exchange, §5.1).
	if s.cfg.OTP != nil && s.cfg.OTP.Enabled(req.Username) {
		if req.OTP == "" {
			challenge, ok := s.cfg.OTP.Challenge(req.Username)
			if !ok {
				return s.failf(conn, "one-time password chain exhausted", "OTP exhausted for %q", req.Username)
			}
			s.stats.AuthFailures.Add(1)
			return s.respond(conn, &protocol.Response{
				Code: protocol.RespAuthRequired, Challenge: challenge,
			})
		}
		if err := s.cfg.OTP.Verify(req.Username, req.OTP); err != nil {
			return s.failf(conn, badPhraseMsg, "OTP verify for %q: %v", req.Username, err)
		}
	}
	entry, err := s.selectEntry(req.Username, req.CredName, req.TaskHint)
	if err != nil {
		return s.failf(conn, notFoundMsg, "GET %q/%q: %v", req.Username, req.CredName, err)
	}
	// Per-credential retrieval restriction composes with the server ACL.
	if entry.Retrievers != "" && !policyMatch(entry.Retrievers, peer) {
		return s.failf(conn, deniedMsg, "GET %q/%q: %s not in credential retriever list", req.Username, entry.Name, peer)
	}
	if entry.Expired(s.cfg.now()) {
		return s.failf(conn, "stored credential has expired", "GET %q/%q expired at %v", req.Username, entry.Name, entry.NotAfter)
	}
	// Within a session, repeated gets of the same sealed credential under
	// the same pass phrase skip the KDF via the session's unseal cache.
	// One mutable copy of the pass phrase serves the cache probe, the
	// unseal and the cache fill (three conversions allocated three copies
	// per GET before), and is wiped when the exchange ends.
	passphrase := []byte(req.Passphrase)
	defer pki.WipeBytes(passphrase)
	issuer := sc.lookup(entry, passphrase)
	cached := issuer != nil
	if !cached {
		var err error
		issuer, err = credstore.UnsealDelegated(entry, passphrase)
		if err != nil {
			if errors.Is(err, credstore.ErrBadPassphrase) {
				return s.failf(conn, badPhraseMsg, "GET %q/%q: bad pass phrase", req.Username, entry.Name)
			}
			s.respond(conn, protocol.ErrorResponse("could not open stored credential"))
			return err
		}
		cached = sc.add(entry, passphrase, issuer)
	}
	lifetime := s.cfg.Lifetimes.ClampDelegatedWithRestriction(req.Lifetime, entry.MaxDelegation)
	if err := s.respond(conn, protocol.OKResponse()); err != nil {
		return err
	}
	// Delegate to the client: the repository is the exporter here; the
	// client generates the key (paper Fig. 2).
	if _, err := gsi.Delegate(conn, issuer, proxy.Options{
		Type:     s.cfg.DelegationProxyType,
		Lifetime: lifetime,
	}); err != nil {
		s.respond(conn, protocol.ErrorResponse("delegation failed: %v", err))
		return fmt.Errorf("GET delegation to %s: %w", peer, err)
	}
	// Drop the unsealed key (paper §5.1: plaintext exists only while in
	// active use); a session-cached key is dropped when the session ends.
	if !cached {
		issuer.PrivateKey = nil
	}
	s.stats.Gets.Add(1)
	s.cfg.logf("DELEGATED %q/%q to %s for %v", req.Username, entry.Name, peer, lifetime)
	return s.respond(conn, protocol.OKResponse())
}

// handleRenewal is the §6.6 path: a long-running job, authenticating with
// its current (soon-to-expire) proxy of the user's identity, obtains a
// fresh delegation without a pass phrase. Authorization is the renewer ACL
// plus an exact identity match with the stored credential's owner.
func (s *Server) handleRenewal(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	if !s.cfg.AuthorizedRenewers.Allows(peer) {
		return s.failf(conn, deniedMsg, "RENEWAL by %s not in authorized_renewers", peer)
	}
	entry, err := s.selectEntry(req.Username, req.CredName, req.TaskHint)
	if err != nil {
		return s.failf(conn, notFoundMsg, "RENEWAL %q/%q: %v", req.Username, req.CredName, err)
	}
	if !entry.Renewable {
		return s.failf(conn, deniedMsg, "RENEWAL %q/%q: credential not renewable", req.Username, entry.Name)
	}
	if entry.Owner != peer {
		return s.failf(conn, deniedMsg, "RENEWAL %q/%q: requester %s is not the credential identity %s",
			req.Username, entry.Name, peer, entry.Owner)
	}
	if entry.Expired(s.cfg.now()) {
		return s.failf(conn, "stored credential has expired", "RENEWAL %q/%q expired at %v", req.Username, entry.Name, entry.NotAfter)
	}
	issuer, err := credstore.UnsealDelegated(entry, nil)
	if err != nil {
		s.respond(conn, protocol.ErrorResponse("could not open stored credential"))
		return err
	}
	lifetime := s.cfg.Lifetimes.ClampDelegatedWithRestriction(req.Lifetime, entry.MaxDelegation)
	if err := s.respond(conn, protocol.OKResponse()); err != nil {
		return err
	}
	if _, err := gsi.Delegate(conn, issuer, proxy.Options{
		Type:     s.cfg.DelegationProxyType,
		Lifetime: lifetime,
	}); err != nil {
		s.respond(conn, protocol.ErrorResponse("delegation failed: %v", err))
		return fmt.Errorf("RENEWAL delegation to %s: %w", peer, err)
	}
	issuer.PrivateKey = nil
	s.stats.Gets.Add(1)
	s.cfg.logf("RENEWED %q/%q for %s for %v", req.Username, entry.Name, peer, lifetime)
	return s.respond(conn, protocol.OKResponse())
}

// --- INFO: myproxy-info ---

func (s *Server) handleInfo(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	// Both depositors and retrievers may inspect; authentication is the
	// per-entry pass phrase.
	if !s.cfg.AcceptedCredentials.Allows(peer) && !s.cfg.AuthorizedRetrievers.Allows(peer) {
		return s.failf(conn, deniedMsg, "INFO by %s not authorized", peer)
	}
	entries, err := s.store.List(req.Username)
	if err != nil {
		s.respond(conn, protocol.ErrorResponse("store error"))
		return err
	}
	resp := &protocol.Response{Code: protocol.RespOK}
	for _, e := range entries {
		if e.CheckPassphrase([]byte(req.Passphrase)) != nil {
			continue // authenticate per entry; skip silently
		}
		resp.Infos = append(resp.Infos, protocol.CredInfo{
			Name:          e.Name,
			Owner:         e.Owner,
			Description:   e.Description,
			StartTime:     e.NotBefore.UTC(),
			EndTime:       e.NotAfter.UTC(),
			MaxDelegation: e.MaxDelegation,
			Retrievers:    e.Retrievers,
			TaskTags:      e.TaskTags,
		})
	}
	if len(resp.Infos) == 0 {
		return s.failf(conn, notFoundMsg, "INFO %q: no entries matched pass phrase", req.Username)
	}
	s.stats.Infos.Add(1)
	return s.respond(conn, resp)
}

// --- DESTROY: myproxy-destroy (paper §4.1) ---

func (s *Server) handleDestroy(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	entry, err := s.store.Get(req.Username, req.CredName)
	if err != nil {
		return s.failf(conn, notFoundMsg, "DESTROY %q/%q: %v", req.Username, req.CredName, err)
	}
	// Only the owner, with the pass phrase, may destroy.
	if entry.Owner != peer {
		return s.failf(conn, deniedMsg, "DESTROY %q/%q by non-owner %s", req.Username, req.CredName, peer)
	}
	if err := entry.CheckPassphrase([]byte(req.Passphrase)); err != nil {
		return s.failf(conn, badPhraseMsg, "DESTROY %q/%q: bad pass phrase", req.Username, req.CredName)
	}
	if err := s.store.Delete(req.Username, req.CredName); err != nil {
		s.respond(conn, protocol.ErrorResponse("store error"))
		return err
	}
	s.stats.Destroys.Add(1)
	s.cfg.logf("DESTROYED %q/%q by %s", req.Username, req.CredName, peer)
	return s.respond(conn, protocol.OKResponse())
}

// --- CHANGE_PASSPHRASE: myproxy-change-passphrase ---

func (s *Server) handleChangePassphrase(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	entry, err := s.store.Get(req.Username, req.CredName)
	if err != nil {
		return s.failf(conn, notFoundMsg, "CHANGE_PASSPHRASE %q/%q: %v", req.Username, req.CredName, err)
	}
	if entry.Owner != peer {
		return s.failf(conn, deniedMsg, "CHANGE_PASSPHRASE %q/%q by non-owner %s", req.Username, req.CredName, peer)
	}
	if err := s.cfg.Passphrase.Check(req.NewPassphrase); err != nil {
		return s.respond(conn, protocol.ErrorResponse("new pass phrase rejected: %v", err))
	}
	switch entry.Kind {
	case credstore.KindDelegated:
		if err := credstore.Reseal(entry, []byte(req.Passphrase), []byte(req.NewPassphrase), s.cfg.KDFIterations); err != nil {
			if errors.Is(err, credstore.ErrBadPassphrase) {
				return s.failf(conn, badPhraseMsg, "CHANGE_PASSPHRASE %q/%q: bad pass phrase", req.Username, req.CredName)
			}
			s.respond(conn, protocol.ErrorResponse("reseal failed"))
			return err
		}
	case credstore.KindStored:
		// The blob is sealed client-side; the server cannot re-encrypt it
		// (by design — it never sees the plaintext).
		return s.respond(conn, protocol.ErrorResponse(
			"stored credentials are sealed client-side; re-upload with myproxy-store to change the pass phrase"))
	}
	if err := s.store.Put(entry); err != nil {
		s.respond(conn, protocol.ErrorResponse("store error"))
		return err
	}
	s.stats.PassphraseChange.Add(1)
	s.cfg.logf("RESEALED %q/%q by %s", req.Username, req.CredName, peer)
	return s.respond(conn, protocol.OKResponse())
}

// --- STORE: myproxy-store (paper §6.1) ---

func (s *Server) handleStore(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	if !s.cfg.AcceptedCredentials.Allows(peer) {
		return s.failf(conn, deniedMsg, "STORE by %s not in accepted_credentials", peer)
	}
	if err := s.cfg.Passphrase.Check(req.Passphrase); err != nil {
		return s.respond(conn, protocol.ErrorResponse("pass phrase rejected: %v", err))
	}
	if prev, err := s.store.Get(req.Username, req.CredName); err == nil && prev.Owner != peer {
		return s.failf(conn, deniedMsg, "STORE overwrite of %q/%q by non-owner %s", req.Username, req.CredName, peer)
	}
	if err := s.respond(conn, protocol.OKResponse()); err != nil {
		return err
	}
	blob, err := conn.ReadMessage()
	if err != nil {
		return fmt.Errorf("STORE blob from %s: %w", peer, err)
	}
	if len(blob) == 0 {
		s.respond(conn, protocol.ErrorResponse("empty credential blob"))
		return errors.New("empty STORE blob")
	}
	entry := &credstore.Entry{
		Username:      req.Username,
		Name:          req.CredName,
		Owner:         peer,
		Kind:          credstore.KindStored,
		SealedKey:     blob,
		Description:   req.Description,
		Retrievers:    req.Retrievers,
		MaxDelegation: req.MaxDelegation,
		TaskTags:      req.TaskTags,
		CreatedAt:     s.cfg.now(),
	}
	if err := entry.SetPassphrase([]byte(req.Passphrase)); err != nil {
		s.respond(conn, protocol.ErrorResponse("could not record pass phrase verifier"))
		return err
	}
	if err := s.store.Put(entry); err != nil {
		s.respond(conn, protocol.ErrorResponse("could not store credential"))
		return err
	}
	s.stats.Stores.Add(1)
	s.cfg.logf("STORED(blob) %q/%q for %s (%d bytes)", req.Username, req.CredName, peer, len(blob))
	return s.respond(conn, protocol.OKResponse())
}

// --- RETRIEVE: myproxy-retrieve (paper §6.1) ---

func (s *Server) handleRetrieve(conn gsi.Channel, req *protocol.Request) error {
	peer := conn.PeerIdentity()
	if !s.cfg.AuthorizedRetrievers.Allows(peer) {
		return s.failf(conn, deniedMsg, "RETRIEVE by %s not in authorized_retrievers", peer)
	}
	if s.cfg.OTP != nil && s.cfg.OTP.Enabled(req.Username) {
		if req.OTP == "" {
			challenge, ok := s.cfg.OTP.Challenge(req.Username)
			if !ok {
				return s.failf(conn, "one-time password chain exhausted", "OTP exhausted for %q", req.Username)
			}
			s.stats.AuthFailures.Add(1)
			return s.respond(conn, &protocol.Response{Code: protocol.RespAuthRequired, Challenge: challenge})
		}
		if err := s.cfg.OTP.Verify(req.Username, req.OTP); err != nil {
			return s.failf(conn, badPhraseMsg, "OTP verify for %q: %v", req.Username, err)
		}
	}
	entry, err := s.selectEntry(req.Username, req.CredName, req.TaskHint)
	if err != nil {
		return s.failf(conn, notFoundMsg, "RETRIEVE %q/%q: %v", req.Username, req.CredName, err)
	}
	if entry.Kind != credstore.KindStored {
		return s.failf(conn, "credential is not retrievable; use get-delegation",
			"RETRIEVE %q/%q is %s", req.Username, entry.Name, entry.Kind)
	}
	if entry.Retrievers != "" && !policyMatch(entry.Retrievers, peer) {
		return s.failf(conn, deniedMsg, "RETRIEVE %q/%q: %s not in credential retriever list", req.Username, entry.Name, peer)
	}
	if err := entry.CheckPassphrase([]byte(req.Passphrase)); err != nil {
		return s.failf(conn, badPhraseMsg, "RETRIEVE %q/%q: bad pass phrase", req.Username, entry.Name)
	}
	s.stats.Retrieves.Add(1)
	s.cfg.logf("RETRIEVED %q/%q by %s", req.Username, entry.Name, peer)
	return s.respond(conn, &protocol.Response{Code: protocol.RespOK, Blob: entry.SealedKey})
}
