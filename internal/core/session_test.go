package core

import (
	"context"
	"crypto/ed25519"
	"crypto/x509"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/credstore"
	"repro/internal/pki"
	"repro/internal/testpki"
)

// TestSessionPipelinesExchanges proves the multiplexed hot path: one
// authenticated connection carries a batch of pipelined Fig. 2 exchanges,
// and the server accounts them as one session with N streams.
func TestSessionPipelinesExchanges(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-portal.test")
	cli := newClient(t, portal, addr)
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("server declined session mode; expected multiplexing")
	}

	opts := make([]GetOptions, 4)
	for i := range opts {
		opts[i] = GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}
	}
	creds, err := sess.GetBatch(context.Background(), opts)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, cred := range creds {
		if cred == nil {
			t.Fatalf("GetBatch left creds[%d] nil without error", i)
		}
		if err := cred.Validate(time.Now()); err != nil {
			t.Fatalf("creds[%d] invalid: %v", i, err)
		}
	}
	// Info rides the same session too.
	infos, err := sess.Info(context.Background(), testUser, testPass)
	if err != nil || len(infos) == 0 {
		t.Fatalf("Info over session = %v, %v", infos, err)
	}
	if n := srv.Stats().Sessions.Load(); n != 1 {
		t.Errorf("sessions = %d, want 1", n)
	}
	if n := srv.Stats().Streams.Load(); n != 5 {
		t.Errorf("streams = %d, want 5 (4 gets + 1 info)", n)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestSessionCarriesKeyAlgorithm proves algorithm agility end to end over
// the multiplexed path: a client asking for Ed25519 delegation keys gets an
// Ed25519 proxy back through a session stream.
func TestSessionCarriesKeyAlgorithm(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-ed-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-ed-portal.test")
	cli := newClient(t, portal, addr)
	cli.KeyAlgorithm = pki.AlgEd25519
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	cred, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if alg, _ := pki.AlgorithmOf(cred.PrivateKey); alg != pki.AlgEd25519 {
		t.Fatalf("delegated key algorithm = %v, want ed25519", alg)
	}
	if err := cred.Validate(time.Now()); err != nil {
		t.Fatalf("ed25519 credential invalid: %v", err)
	}
}

// TestSessionDowngrade proves the legacy path: a server with sessions
// disabled answers the SESSION hello with an error verdict, and the client
// degrades to one connection per exchange — same results, no multiplexing.
func TestSessionDowngrade(t *testing.T) {
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.DisableSessions = true
	})
	alice := testpki.User(t, "sess-down-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-down-portal.test")
	sess, err := newClient(t, portal, addr).NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession against a no-session server: %v", err)
	}
	defer sess.Close()
	if sess.Multiplexed() {
		t.Fatal("session reports multiplexed against a refusing server")
	}
	cred, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatalf("degraded Get: %v", err)
	}
	if err := cred.Validate(time.Now()); err != nil {
		t.Fatalf("degraded credential invalid: %v", err)
	}
}

// stallingStore blocks every Get while stalled is set, until release is
// closed, standing in for a wedged disk under the repository.
type stallingStore struct {
	credstore.Store
	stalled atomic.Bool
	release chan struct{}
	once    sync.Once
}

func (s *stallingStore) Get(username, name string) (*credstore.Entry, error) {
	if s.stalled.Load() {
		<-s.release
	}
	return s.Store.Get(username, name)
}

func (s *stallingStore) unstall() { s.once.Do(func() { close(s.release) }) }

// TestSessionGetHonoursContext pins that a session exchange is bounded by
// the caller's context, not by the client's much longer Timeout: a Get
// against a stalled store gives up at the context deadline, and the
// session stays usable for the next Get.
func TestSessionGetHonoursContext(t *testing.T) {
	store := &stallingStore{Store: credstore.NewMemStore(), release: make(chan struct{})}
	_, addr := startServer(t, func(cfg *ServerConfig) { cfg.Store = store })
	t.Cleanup(store.unstall) // runs before the server drains
	alice := testpki.User(t, "sess-ctx-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-ctx-portal.test")
	sess, err := newClient(t, portal, addr).NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("expected a multiplexed session")
	}
	opts := GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}

	store.stalled.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Get(ctx, opts)
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("Get against a stalled store returned after %v; want the 200ms context deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get against a stalled store = %v, want context.DeadlineExceeded", err)
	}

	store.unstall()
	cred, err := sess.Get(context.Background(), opts)
	if err != nil {
		t.Fatalf("Get after the stall cleared: %v", err)
	}
	if err := cred.Validate(time.Now()); err != nil {
		t.Fatalf("credential after the stall invalid: %v", err)
	}
}

// TestSessionRevokedPeerRefusedMidSession pins the security property the
// session mode must not weaken: a CRL reload (SetRevoked) refuses the peer
// on its NEXT stream even though the session — with its cached chain
// verification and resumed TLS state — is already open and has served
// exchanges.
func TestSessionRevokedPeerRefusedMidSession(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-rev-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-rev-portal.test")
	sess, err := newClient(t, portal, addr).NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("expected a multiplexed session")
	}
	if _, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	}); err != nil {
		t.Fatalf("Get before revocation: %v", err)
	}

	// "CRL reload": the portal's certificate is revoked while its session
	// is open and pipelining.
	serial := portal.Certificate.SerialNumber.String()
	srv.SetRevoked(func(c *x509.Certificate) bool {
		return c.SerialNumber.String() == serial
	})

	if _, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	}); err == nil {
		t.Fatal("revoked peer served on an already-open session")
	}
}

// TestPutServerSideKeyAlgorithm proves the KEY_ALG request key: a PUT asking
// for Ed25519 makes the server generate the stored proxy's key pair with
// that algorithm, visible in the issuer certificate of a later delegation.
func TestPutServerSideKeyAlgorithm(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "keyalg-alice")
	userCli := newClient(t, alice, addr)
	userCli.KeyAlgorithm = pki.AlgEd25519
	mustPut(t, userCli, PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "keyalg-portal.test")
	cred, err := newClient(t, portal, addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	chain := cred.CertChain()
	if len(chain) < 2 {
		t.Fatalf("delegated chain has %d certificates", len(chain))
	}
	// chain[1] is the stored proxy the repository holds — the certificate
	// whose key PUT asked the server to generate as Ed25519.
	if _, ok := chain[1].PublicKey.(ed25519.PublicKey); !ok {
		t.Fatalf("stored proxy key is %T, want ed25519", chain[1].PublicKey)
	}
}

// TestSessionStreamAllocs pins the allocation profile of one pipelined
// Fig. 2 exchange over an established session — the multiplexed path PRs 3
// and 8 built exists to amortize the handshake, key generation and chain
// verification, and this test keeps the residue from regrowing. The count
// covers both sides (client and in-process server) and measures ~1.2k
// objects steady-state; the bound leaves ~20% slack for runtime and
// scheduling noise while a reintroduced per-request keypair or per-stream
// chain walk (tens of thousands of allocations) still fails loudly.
// AllocsPerRun's warm-up run absorbs the session's first-use costs (unseal
// cache fill, verify cache miss).
func TestSessionStreamAllocs(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "alloc-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "alloc-portal.test")
	cli := newClient(t, portal, addr)
	// Ed25519 delegation keys keep the measured loop free of RSA keygen's
	// nondeterministic allocation tail.
	cli.KeyAlgorithm = pki.AlgEd25519
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("server declined session mode")
	}
	opts := GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := sess.Get(context.Background(), opts); err != nil {
			t.Fatalf("session Get: %v", err)
		}
	})
	if allocs > 1500 {
		t.Errorf("per-stream session Get allocates %.0f objects/op, want <= 1500", allocs)
	}
}
