// Package httpgate is the paper's §6.4 future-work item: "The current
// MyProxy client-server protocol was quickly designed as a prototype. We
// plan to investigate using more standard protocols. One option would be
// HTTP for compatibility with standard web-oriented libraries."
//
// It exposes the same repository semantics as internal/core over
// HTTPS+JSON. Clients authenticate with TLS client certificates (proxy
// chains included — verification is the same proxy-aware validator), and
// delegation is reshaped to fit HTTP's single round trip: the client sends
// a certification request in the GET body and receives the signed chain in
// the response, so private keys still never cross the wire.
package httpgate

import (
	"crypto/rsa"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// Gateway serves the HTTP frontend for a repository configuration. It
// shares the store (and therefore all credentials) with any protocol
// frontend built from the same ServerConfig.
type Gateway struct {
	cfg   core.ServerConfig
	store credstore.Store
	mux   *http.ServeMux
	// verifyCache memoizes client chain verifications across requests —
	// the same portal chain authenticates every call, and net/http opens
	// fresh TLS connections often enough that re-walking it is measurable.
	verifyCache *proxy.VerifyCache
}

// New builds a gateway from a repository configuration. The same
// validation rules as core.NewServer apply.
func New(cfg core.ServerConfig) (*Gateway, error) {
	if cfg.Credential == nil || cfg.Roots == nil {
		return nil, errors.New("httpgate: credential and roots required")
	}
	if cfg.AcceptedCredentials == nil {
		cfg.AcceptedCredentials = policy.NewACL()
	}
	if cfg.AuthorizedRetrievers == nil {
		cfg.AuthorizedRetrievers = policy.NewACL()
	}
	store := cfg.Store
	if store == nil {
		store = credstore.NewMemStore()
	}
	verifyCache := cfg.VerifyCache
	if verifyCache == nil {
		verifyCache = proxy.NewVerifyCache(0)
	}
	g := &Gateway{cfg: cfg, store: store, mux: http.NewServeMux(), verifyCache: verifyCache}
	g.mux.HandleFunc("POST /v1/get", g.requireIdentity(g.handleGet))
	g.mux.HandleFunc("GET /v1/info", g.requireIdentity(g.handleInfo))
	g.mux.HandleFunc("POST /v1/store", g.requireIdentity(g.handleStore))
	g.mux.HandleFunc("POST /v1/retrieve", g.requireIdentity(g.handleRetrieve))
	g.mux.HandleFunc("POST /v1/destroy", g.requireIdentity(g.handleDestroy))
	return g, nil
}

// Store exposes the backing store so a gateway can be co-hosted with a
// core.Server over the same credentials.
func (g *Gateway) Store() credstore.Store { return g.store }

// Serve runs HTTPS with client-certificate authentication on ln.
func (g *Gateway) Serve(ln net.Listener) error {
	cert := tls.Certificate{PrivateKey: g.cfg.Credential.PrivateKey}
	for _, c := range g.cfg.Credential.CertChain() {
		cert.Certificate = append(cert.Certificate, c.Raw)
	}
	srv := &http.Server{
		Handler:           g.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          log.New(discardWriter{}, "", 0),
		TLSConfig: &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
			// Client chains may contain proxy certificates, which the
			// stdlib verifier rejects; require a chain here and verify it
			// with the proxy-aware validator per request.
			ClientAuth: tls.RequireAnyClientCert,
		},
	}
	return srv.ServeTLS(ln, "", "")
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (g *Gateway) now() time.Time {
	if g.cfg.Now != nil {
		return g.cfg.Now()
	}
	return time.Now()
}

func (g *Gateway) logf(format string, args ...interface{}) {
	if g.cfg.Logger != nil {
		g.cfg.Logger.Printf(format, args...)
	}
}

// identityHandler receives the authenticated Grid identity.
type identityHandler func(w http.ResponseWriter, r *http.Request, peer *proxy.Result)

// requireIdentity verifies the TLS client chain with the proxy-aware
// validator before admitting the request.
func (g *Gateway) requireIdentity(h identityHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.TLS == nil || len(r.TLS.PeerCertificates) == 0 {
			writeErr(w, http.StatusUnauthorized, "client certificate required")
			return
		}
		res, err := g.verifyCache.Verify(r.TLS.PeerCertificates, proxy.VerifyOptions{
			Roots:       g.cfg.Roots,
			MaxDepth:    g.cfg.MaxChainDepth,
			IsRevoked:   g.cfg.IsRevoked,
			CurrentTime: g.now(),
		})
		if err != nil {
			g.logf("httpgate: reject %q: %v", r.RemoteAddr, err)
			writeErr(w, http.StatusUnauthorized, "client chain rejected")
			return
		}
		h(w, r, res)
	}
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// checkNames validates the wire-supplied username and (optional)
// credential name before any backend call runs on them, writing a 400 and
// reporting false on a charset or length violation. This mirrors
// protocol.ParseRequest's boundary check for the JSON transport.
func checkNames(w http.ResponseWriter, username, credName string) bool {
	if err := protocol.ValidateUsername(username); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return false
	}
	if credName != "" {
		if err := protocol.ValidateCredName(credName); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return false
		}
	}
	return true
}

// GetRequest is the body of POST /v1/get: HTTP-shaped Figure 2. The CSR
// carries the public key the client wants certified; the response carries
// the signed proxy chain, so the whole delegation is one round trip.
//
//myproxy:untrusted
type GetRequest struct {
	Username        string `json:"username"`
	Passphrase      string `json:"passphrase"`
	LifetimeSeconds int64  `json:"lifetime_seconds,omitempty"`
	CredName        string `json:"cred_name,omitempty"`
	TaskHint        string `json:"task_hint,omitempty"`
	OTP             string `json:"otp,omitempty"`
	// CSRPEM is a PEM CERTIFICATE REQUEST for the key the client
	// generated locally.
	CSRPEM string `json:"csr_pem"`
}

// GetResponse carries the delegated chain, leaf first.
type GetResponse struct {
	ChainPEM string `json:"chain_pem"`
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request, peer *proxy.Result) {
	var req GetRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body")
		return
	}
	if !checkNames(w, req.Username, req.CredName) {
		return
	}
	peerDN := peer.IdentityString()
	if !g.cfg.AuthorizedRetrievers.Allows(peerDN) {
		g.logf("httpgate: GET by %s not in authorized_retrievers", peerDN)
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	if g.cfg.OTP != nil && g.cfg.OTP.Enabled(req.Username) {
		if req.OTP == "" {
			challenge, ok := g.cfg.OTP.Challenge(req.Username)
			if !ok {
				writeErr(w, http.StatusForbidden, "one-time password chain exhausted")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnauthorized)
			json.NewEncoder(w).Encode(map[string]string{
				"error": "one-time password required", "challenge": challenge,
			})
			return
		}
		if err := g.cfg.OTP.Verify(req.Username, req.OTP); err != nil {
			writeErr(w, http.StatusForbidden, "bad one-time password")
			return
		}
	}
	entry, err := g.selectEntry(req.Username, req.CredName, req.TaskHint)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no credentials found for user")
		return
	}
	if entry.Retrievers != "" && !policy.MatchDN(entry.Retrievers, peerDN) {
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	if entry.Expired(g.now()) {
		writeErr(w, http.StatusGone, "stored credential has expired")
		return
	}
	issuer, err := credstore.UnsealDelegated(entry, []byte(req.Passphrase))
	if err != nil {
		writeErr(w, http.StatusForbidden, "bad pass phrase or username")
		return
	}
	block, _ := pem.Decode([]byte(req.CSRPEM))
	if block == nil || block.Type != "CERTIFICATE REQUEST" {
		writeErr(w, http.StatusBadRequest, "csr_pem must be a CERTIFICATE REQUEST block")
		return
	}
	csr, err := x509.ParseCertificateRequest(block.Bytes)
	if err != nil || csr.CheckSignature() != nil {
		writeErr(w, http.StatusBadRequest, "invalid certification request")
		return
	}
	pub, ok := csr.PublicKey.(*rsa.PublicKey)
	if !ok {
		writeErr(w, http.StatusBadRequest, "CSR public key must be RSA")
		return
	}
	lifetime := g.cfg.Lifetimes.ClampDelegatedWithRestriction(
		time.Duration(req.LifetimeSeconds)*time.Second, entry.MaxDelegation)
	cert, err := proxy.Create(issuer, pub, proxy.Options{
		Type:     g.cfg.DelegationProxyType,
		Lifetime: lifetime,
	})
	issuer.PrivateKey = nil
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "delegation failed")
		return
	}
	chain := append([]*x509.Certificate{cert}, issuer.CertChain()...)
	g.logf("httpgate: DELEGATED %q/%q to %s for %v", req.Username, entry.Name, peerDN, lifetime)
	writeJSON(w, GetResponse{ChainPEM: string(encodeChain(chain))})
}

// InfoResponse mirrors the INFO command.
type InfoResponse struct {
	Credentials []InfoEntry `json:"credentials"`
}

// InfoEntry is one stored credential description.
type InfoEntry struct {
	Name          string    `json:"name"`
	Owner         string    `json:"owner"`
	Description   string    `json:"description,omitempty"`
	NotBefore     time.Time `json:"not_before"`
	NotAfter      time.Time `json:"not_after"`
	MaxDelegation string    `json:"max_delegation,omitempty"`
	Retrievers    string    `json:"retrievers,omitempty"`
	TaskTags      []string  `json:"task_tags,omitempty"`
	Kind          string    `json:"kind"`
}

func (g *Gateway) handleInfo(w http.ResponseWriter, r *http.Request, peer *proxy.Result) {
	peerDN := peer.IdentityString()
	if !g.cfg.AcceptedCredentials.Allows(peerDN) && !g.cfg.AuthorizedRetrievers.Allows(peerDN) {
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	username := r.URL.Query().Get("username")
	passphrase := r.URL.Query().Get("passphrase")
	if username == "" {
		writeErr(w, http.StatusBadRequest, "username required")
		return
	}
	entries, err := g.store.List(username)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "store error")
		return
	}
	resp := InfoResponse{Credentials: []InfoEntry{}}
	for _, e := range entries {
		if e.CheckPassphrase([]byte(passphrase)) != nil {
			continue
		}
		resp.Credentials = append(resp.Credentials, InfoEntry{
			Name: e.Name, Owner: e.Owner, Description: e.Description,
			NotBefore: e.NotBefore.UTC(), NotAfter: e.NotAfter.UTC(),
			MaxDelegation: durString(e.MaxDelegation), Retrievers: e.Retrievers,
			TaskTags: e.TaskTags, Kind: e.Kind.String(),
		})
	}
	if len(resp.Credentials) == 0 {
		writeErr(w, http.StatusNotFound, "no credentials found for user")
		return
	}
	writeJSON(w, resp)
}

func durString(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

// StoreRequest deposits a client-sealed blob (§6.1 over HTTP).
//
//myproxy:untrusted
type StoreRequest struct {
	Username    string   `json:"username"`
	Passphrase  string   `json:"passphrase"`
	CredName    string   `json:"cred_name,omitempty"`
	Description string   `json:"description,omitempty"`
	Retrievers  string   `json:"retrievers,omitempty"`
	TaskTags    []string `json:"task_tags,omitempty"`
	// Blob is the pki.SealBytes container, base64 via encoding/json.
	Blob []byte `json:"blob"`
}

func (g *Gateway) handleStore(w http.ResponseWriter, r *http.Request, peer *proxy.Result) {
	var req StoreRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body")
		return
	}
	if !checkNames(w, req.Username, req.CredName) {
		return
	}
	peerDN := peer.IdentityString()
	if !g.cfg.AcceptedCredentials.Allows(peerDN) {
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	if err := g.cfg.Passphrase.Check(req.Passphrase); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("pass phrase rejected: %v", err))
		return
	}
	if len(req.Blob) == 0 {
		writeErr(w, http.StatusBadRequest, "blob required")
		return
	}
	if prev, err := g.store.Get(req.Username, req.CredName); err == nil && prev.Owner != peerDN {
		writeErr(w, http.StatusConflict, "credential exists and is owned by another identity")
		return
	}
	entry := &credstore.Entry{
		Username: req.Username, Name: req.CredName, Owner: peerDN,
		Kind: credstore.KindStored, SealedKey: req.Blob,
		Description: req.Description, Retrievers: req.Retrievers,
		TaskTags: req.TaskTags, CreatedAt: g.now(),
	}
	if err := entry.SetPassphrase([]byte(req.Passphrase)); err != nil {
		writeErr(w, http.StatusInternalServerError, "verifier error")
		return
	}
	if err := g.store.Put(entry); err != nil {
		writeErr(w, http.StatusInternalServerError, "store error")
		return
	}
	g.logf("httpgate: STORED %q/%q for %s", req.Username, req.CredName, peerDN)
	writeJSON(w, map[string]bool{"ok": true})
}

// RetrieveRequest fetches a stored blob.
//
//myproxy:untrusted
type RetrieveRequest struct {
	Username   string `json:"username"`
	Passphrase string `json:"passphrase"`
	CredName   string `json:"cred_name,omitempty"`
	TaskHint   string `json:"task_hint,omitempty"`
	OTP        string `json:"otp,omitempty"`
}

func (g *Gateway) handleRetrieve(w http.ResponseWriter, r *http.Request, peer *proxy.Result) {
	var req RetrieveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body")
		return
	}
	if !checkNames(w, req.Username, req.CredName) {
		return
	}
	peerDN := peer.IdentityString()
	if !g.cfg.AuthorizedRetrievers.Allows(peerDN) {
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	entry, err := g.selectEntry(req.Username, req.CredName, req.TaskHint)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no credentials found for user")
		return
	}
	if entry.Kind != credstore.KindStored {
		writeErr(w, http.StatusConflict, "credential is not retrievable; use /v1/get")
		return
	}
	if entry.Retrievers != "" && !policy.MatchDN(entry.Retrievers, peerDN) {
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	if err := entry.CheckPassphrase([]byte(req.Passphrase)); err != nil {
		writeErr(w, http.StatusForbidden, "bad pass phrase or username")
		return
	}
	g.logf("httpgate: RETRIEVED %q/%q by %s", req.Username, entry.Name, peerDN)
	writeJSON(w, map[string][]byte{"blob": entry.SealedKey})
}

// DestroyRequest removes a credential.
//
//myproxy:untrusted
type DestroyRequest struct {
	Username   string `json:"username"`
	Passphrase string `json:"passphrase"`
	CredName   string `json:"cred_name,omitempty"`
}

func (g *Gateway) handleDestroy(w http.ResponseWriter, r *http.Request, peer *proxy.Result) {
	var req DestroyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body")
		return
	}
	if !checkNames(w, req.Username, req.CredName) {
		return
	}
	entry, err := g.store.Get(req.Username, req.CredName)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no credentials found for user")
		return
	}
	if entry.Owner != peer.IdentityString() {
		writeErr(w, http.StatusForbidden, "authorization failed")
		return
	}
	if err := entry.CheckPassphrase([]byte(req.Passphrase)); err != nil {
		writeErr(w, http.StatusForbidden, "bad pass phrase or username")
		return
	}
	if err := g.store.Delete(req.Username, req.CredName); err != nil {
		writeErr(w, http.StatusInternalServerError, "store error")
		return
	}
	g.logf("httpgate: DESTROYED %q/%q", req.Username, req.CredName)
	writeJSON(w, map[string]bool{"ok": true})
}

// selectEntry mirrors the core server's wallet selection (§6.2).
func (g *Gateway) selectEntry(username, credName, taskHint string) (*credstore.Entry, error) {
	if credName != "" {
		return g.store.Get(username, credName)
	}
	if taskHint == "" {
		if e, err := g.store.Get(username, ""); err == nil {
			return e, nil
		}
		entries, err := g.store.List(username)
		if err != nil {
			return nil, err
		}
		if len(entries) == 1 {
			return entries[0], nil
		}
		return nil, credstore.ErrNotFound
	}
	entries, err := g.store.List(username)
	if err != nil {
		return nil, err
	}
	now := g.now()
	var best *credstore.Entry
	for _, e := range entries {
		if e.Expired(now) || !hasTag(e, taskHint) {
			continue
		}
		if best == nil || len(e.TaskTags) < len(best.TaskTags) ||
			(len(e.TaskTags) == len(best.TaskTags) && e.NotAfter.After(best.NotAfter)) {
			best = e
		}
	}
	if best == nil {
		return nil, credstore.ErrNotFound
	}
	return best, nil
}

func hasTag(e *credstore.Entry, tag string) bool {
	for _, t := range e.TaskTags {
		if t == tag {
			return true
		}
	}
	return false
}

func encodeChain(chain []*x509.Certificate) []byte {
	var out []byte
	for _, c := range chain {
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Raw})...)
	}
	return out
}
