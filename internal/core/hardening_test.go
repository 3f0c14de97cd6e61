package core

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/testpki"
)

// These tests inject failures at each protocol layer and check the server
// survives: a hostile network peer must not crash, hang, or corrupt the
// repository (it runs on "a tightly secured host", §5.1, but must also be
// robust to garbage from the network).

func TestServerSurvivesRawGarbage(t *testing.T) {
	srv, addr := startServer(t, nil)
	payloads := [][]byte{
		nil,
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0x16, 0x03, 0x01, 0x00, 0x00},   // truncated TLS hello
		make([]byte, 4096),               // zeros
		[]byte("\x16\x03\x01\xff\xffAA"), // absurd length
	}
	for _, p := range payloads {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) > 0 {
			conn.Write(p)
		}
		conn.Close()
	}
	// The server still works afterwards.
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	if srv.Stats().Puts.Load() != 1 {
		t.Error("server unusable after garbage")
	}
}

func TestServerSurvivesTLSWithoutClientCert(t *testing.T) {
	srv, addr := startServer(t, nil)
	// A TLS client that presents no certificate completes the handshake
	// (RequireAnyClientCert only *requests*... it requires; handshake
	// fails server-side) — either way the server must stay up.
	conn, err := tls.Dial("tcp", addr, &tls.Config{InsecureSkipVerify: true})
	if err == nil {
		conn.Write([]byte("x"))
		conn.Close()
	}
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	_ = srv
}

func TestServerRejectsGarbageAfterHandshake(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	conn, err := gsi.Dial(context.Background(), nil, addr, alice, gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage([]byte("NOT A PROTOCOL MESSAGE")); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("no error response: %v", err)
	}
	resp, err := protocol.ParseResponse(reply)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != protocol.RespError {
		t.Errorf("code = %d", resp.Code)
	}
	// The server counts the error after writing the reply and closes the
	// connection after counting it, so EOF orders the check after the
	// increment.
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("server kept the connection open after a malformed request")
	}
	if srv.Stats().Errors.Load() == 0 {
		t.Error("malformed request not counted")
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	conn, err := gsi.Dial(context.Background(), nil, addr, alice, gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hand-craft a frame header claiming 512 MiB.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 512<<20)
	if err := conn.WriteMessage(nil); err != nil { // prime: empty message
		t.Fatal(err)
	}
	// Server responds with a parse error for the empty message; the
	// important property is that it never tried to allocate 512 MiB.
	if _, err := conn.ReadMessage(); err != nil {
		t.Fatalf("server dropped connection on empty frame: %v", err)
	}
}

func TestServerHalfOpenConnectionTimesOut(t *testing.T) {
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.RequestTimeout = 300 * time.Millisecond
	})
	alice := testpki.User(t, "core-alice")
	conn, err := gsi.Dial(context.Background(), nil, addr, alice, gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must drop the session at its deadline
	// rather than leak it.
	start := time.Now()
	_, err = conn.ReadMessage()
	if err == nil {
		t.Fatal("server kept a silent session open")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("session lingered %v", elapsed)
	}
}

func TestServerConcurrentMixedLoad(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	portal := testpki.Host(t, "portal.test")

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := newClient(t, portal, addr)
			// Interleave successful gets, failed auths, and infos.
			if _, err := cli.Get(context.Background(), GetOptions{
				Username: testUser, Passphrase: testPass,
			}); err != nil {
				errs <- err
			}
			if _, err := cli.Get(context.Background(), GetOptions{
				Username: testUser, Passphrase: "wrong wrong",
			}); err == nil {
				errs <- errWrongPassAccepted
			}
			if _, err := cli.Info(context.Background(), testUser, testPass); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Stats().Gets.Load(); got != workers {
		t.Errorf("gets = %d, want %d", got, workers)
	}
	if got := srv.Stats().AuthFailures.Load(); got != workers {
		t.Errorf("auth failures = %d, want %d", got, workers)
	}
}

var errWrongPassAccepted = &ErrOTPRequired{Challenge: "sentinel: wrong pass accepted"}

func TestServerPurgeSweeper(t *testing.T) {
	fakeNow := time.Now()
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return fakeNow
	}
	store := credstore.NewMemStore()
	srv, err := NewServer(ServerConfig{
		Credential:           testpki.Host(t, "myproxy.test"),
		Roots:                testRoots(t),
		Store:                store,
		AcceptedCredentials:  policy.NewACL("*"),
		AuthorizedRetrievers: policy.NewACL("*"),
		PurgeInterval:        20 * time.Millisecond,
		Now:                  now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	e := &credstore.Entry{Username: "u", NotAfter: fakeNow.Add(time.Hour)}
	if err := e.SetPassphrase([]byte("pass")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(e); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fakeNow = fakeNow.Add(2 * time.Hour)
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := store.Get("u", ""); err == credstore.ErrNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never purged the expired entry")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
