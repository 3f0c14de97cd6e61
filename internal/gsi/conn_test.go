package gsi

import (
	"crypto/x509"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

func testRoots(t *testing.T) *x509.CertPool {
	t.Helper()
	pool := x509.NewCertPool()
	pool.AddCert(testpki.CA(t).Certificate())
	return pool
}

// connectPair establishes a GSI channel between two credentials over an
// in-memory pipe and returns (client side, server side).
func connectPair(t *testing.T, clientCred, serverCred *pki.Credential, clientOpts, serverOpts AuthOptions) (*Conn, *Conn, error) {
	t.Helper()
	cliRaw, srvRaw := net.Pipe()
	// Close the raw pipe ends at cleanup rather than the TLS conns:
	// tls.Conn.Close blocks up to 5s writing close_notify into the
	// synchronous pipe when the peer is not reading.
	t.Cleanup(func() { cliRaw.Close(); srvRaw.Close() })
	// Bound every exchange over the synchronous pipe: a handshake or
	// delegation bug then fails within seconds instead of hanging the
	// test binary until the go test timeout.
	dl := time.Now().Add(30 * time.Second)
	_ = cliRaw.SetDeadline(dl)
	_ = srvRaw.SetDeadline(dl)
	type res struct {
		conn *Conn
		err  error
	}
	srvCh := make(chan res, 1)
	go func() {
		c, err := Server(srvRaw, serverCred, serverOpts)
		srvCh <- res{c, err}
	}()
	cli, cliErr := Client(cliRaw, clientCred, clientOpts)
	srv := <-srvCh
	if cliErr != nil || srv.err != nil {
		cliRaw.Close()
		srvRaw.Close()
		if cliErr != nil {
			return nil, nil, cliErr
		}
		return nil, nil, srv.err
	}
	return cli, srv.conn, nil
}

func defaultOpts(t *testing.T) AuthOptions {
	return AuthOptions{Roots: testRoots(t), HandshakeTimeout: 5 * time.Second}
}

func TestMutualAuthentication(t *testing.T) {
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	cli, srv, err := connectPair(t, user, server, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	if got := srv.PeerIdentity(); got != user.Subject() {
		t.Errorf("server saw peer %q, want %q", got, user.Subject())
	}
	if got := cli.PeerIdentity(); got != server.Subject() {
		t.Errorf("client saw peer %q, want %q", got, server.Subject())
	}
}

func TestChannelCarriesMessages(t *testing.T) {
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	cli, srv, err := connectPair(t, user, server, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		//myproxy:allow goroleak connectPair arms a 30s deadline on the underlying pipe and t.Cleanup closes it
		msg, err := srv.ReadMessage()
		if err == nil && string(msg) == "ping" {
			err = srv.WriteMessage([]byte("pong"))
		}
		done <- err
	}()
	if err := cli.WriteMessage([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply, err := cli.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong" {
		t.Errorf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestProxyCredentialAuthenticatesAsUser(t *testing.T) {
	// The defining property of proxy credentials (paper §2.3): a channel
	// authenticated with a proxy yields the *user's* identity.
	user := testpki.User(t, "gsi-alice")
	p, err := proxy.New(user, proxy.Options{Type: proxy.RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	server := testpki.Host(t, "myproxy.test")
	_, srv, err := connectPair(t, p, server, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.PeerIdentity(); got != user.Subject() {
		t.Errorf("proxy authenticated as %q, want user %q", got, user.Subject())
	}
	if srv.Peer.Depth != 1 {
		t.Errorf("depth = %d", srv.Peer.Depth)
	}
}

func TestUntrustedClientRejected(t *testing.T) {
	rogueCA, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/CN=Rogue CA"), Key: testpki.Key(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := rogueCA.IssueCredentialForKey(pki.MustParseDN("/CN=rogue"), time.Hour, testpki.Key(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	server := testpki.Host(t, "myproxy.test")
	_, _, err = connectPair(t, rogue, server, defaultOpts(t), defaultOpts(t))
	if err == nil {
		t.Fatal("untrusted client accepted")
	}
}

func TestExpectedPeerEnforced(t *testing.T) {
	// Clients authenticate the repository itself (paper §5.1): connecting
	// to a server that presents some other trusted identity must fail.
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	opts := defaultOpts(t)
	opts.ExpectedPeer = "*/CN=some-other-server"
	_, _, err := connectPair(t, user, server, opts, defaultOpts(t))
	if err == nil {
		t.Fatal("wrong server identity accepted")
	}
	if !strings.Contains(err.Error(), "does not match expected") {
		t.Errorf("unexpected error: %v", err)
	}
	// And the match succeeds with the right pattern.
	opts.ExpectedPeer = "*/CN=myproxy.test"
	if _, _, err := connectPair(t, user, server, opts, defaultOpts(t)); err != nil {
		t.Fatalf("matching ExpectedPeer rejected: %v", err)
	}
}

func TestRevokedPeerRejected(t *testing.T) {
	user := testpki.User(t, "gsi-revoked")
	server := testpki.Host(t, "myproxy.test")
	opts := defaultOpts(t)
	serial := user.Certificate.SerialNumber
	opts.IsRevoked = func(c *x509.Certificate) bool {
		return c.SerialNumber.Cmp(serial) == 0
	}
	_, _, err := connectPair(t, user, server, defaultOpts(t), opts)
	if err == nil {
		t.Fatal("revoked client accepted")
	}
}

func TestServerRequiresRoots(t *testing.T) {
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	_, _, err := connectPair(t, user, server, defaultOpts(t), AuthOptions{})
	if err == nil {
		t.Fatal("server with no roots accepted a client")
	}
}

// truncationResult carries a ReadMessage outcome across goroutines.
type truncationResult struct {
	msg []byte
	err error
}

// readAsync starts a ReadMessage and returns the result channel, failing the
// test if the read has not completed within the deadline (a truncated peer
// must never hang the reader).
func awaitRead(t *testing.T, c *Conn) truncationResult {
	t.Helper()
	done := make(chan truncationResult, 1)
	go func() {
		//myproxy:allow goroleak connectPair arms a 30s deadline on the underlying pipe, and awaitRead fails the test after 10s
		msg, err := c.ReadMessage()
		done <- truncationResult{msg, err}
	}()
	select {
	case res := <-done:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("ReadMessage hung on truncated frame")
		return truncationResult{}
	}
}

func TestTruncatedFrameMidLengthPrefix(t *testing.T) {
	// A peer that dies after sending only part of the 4-byte length prefix
	// must produce a clean error, not a hang and not an empty message.
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	cli, srv, err := connectPair(t, user, server, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		srv.tls.Write([]byte{0x00, 0x00}) // half a prefix...
		srv.tls.Close()                   // ...then gone
	}()
	res := awaitRead(t, cli)
	if res.err == nil {
		t.Fatalf("truncated prefix accepted as message %q", res.msg)
	}
	if !errors.Is(res.err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want unexpected EOF", res.err)
	}
	if res.msg != nil {
		t.Errorf("partial message surfaced: %q", res.msg)
	}
}

func TestTruncatedFrameMidPayload(t *testing.T) {
	// A complete prefix promising 64 bytes followed by only 10 must fail the
	// read — a short body must never be delivered as a valid message.
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	cli, srv, err := connectPair(t, user, server, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		srv.tls.Write(hdr[:])
		srv.tls.Write([]byte("ten bytes!"))
		srv.tls.Close()
	}()
	res := awaitRead(t, cli)
	if res.err == nil {
		t.Fatalf("truncated payload accepted as message %q", res.msg)
	}
	if !errors.Is(res.err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want unexpected EOF", res.err)
	}
	if !strings.Contains(res.err.Error(), "read frame body") {
		t.Errorf("err = %v, want frame-body context", res.err)
	}
	if res.msg != nil {
		t.Errorf("partial message surfaced: %q", res.msg)
	}
}

func TestMessageTimeoutUnblocksSilentPeer(t *testing.T) {
	// The per-message deadline (slowloris guard) must fire even when the
	// peer sends nothing at all.
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	cli, _, err := connectPair(t, user, server, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	cli.SetMessageTimeout(100 * time.Millisecond)
	start := time.Now()
	res := awaitRead(t, cli)
	if res.err == nil {
		t.Fatal("read from silent peer succeeded")
	}
	var nerr net.Error
	if !errors.As(res.err, &nerr) || !nerr.Timeout() {
		t.Errorf("err = %v, want net timeout", res.err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout fired after %v, want ~100ms", elapsed)
	}
}

func TestDialOverTCP(t *testing.T) {
	user := testpki.User(t, "gsi-alice")
	server := testpki.Host(t, "myproxy.test")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn, err := Server(raw, server, defaultOpts(t))
		if err != nil {
			_ = raw.Close() // Server leaves raw open on handshake failure
			done <- err
			return
		}
		defer conn.Close()
		msg, err := conn.ReadMessage()
		if err == nil {
			err = conn.WriteMessage(append([]byte("echo:"), msg...))
		}
		done <- err
	}()
	conn, err := Dial(t.Context(), nil, ln.Addr().String(), user, defaultOpts(t))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := conn.WriteMessage([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:hi" {
		t.Errorf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
