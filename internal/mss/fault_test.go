package mss

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/testpki"
)

// A failed dial surfaces cleanly and the next call re-dials.
func TestClientRecoversAfterConnectFailure(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
	)}).DialContext

	if err := c.Put("a.dat", []byte("x")); !errors.Is(err, faultnet.ErrInjectedConnect) {
		t.Fatalf("err = %v, want injected connect failure", err)
	}
	if err := c.Put("a.dat", []byte("payload")); err != nil {
		t.Fatalf("Put after failed dial: %v", err)
	}
	data, err := c.Get("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("payload")) {
		t.Errorf("Get = %q", data)
	}
}

// Objects survive a link that fragments every write into tiny chunks.
func TestTransferOverFragmentingLink(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{MaxWriteChunk: 5},
	)}).DialContext
	payload := bytes.Repeat([]byte("simulation output "), 64)
	if err := c.Put("big.dat", payload); err != nil {
		t.Fatalf("Put over fragmenting link: %v", err)
	}
	got, err := c.Get("big.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("object corrupted: %d bytes, want %d", len(got), len(payload))
	}
}

// A mid-session reset is detected, not silently swallowed: the client
// errors, then recovers on a fresh session.
func TestClientRecoversAfterMidSessionReset(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	if err := c.Put("keep.dat", []byte("stable")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	if err := c.Put("lost.dat", []byte("x")); err == nil {
		t.Fatal("call on dropped session succeeded")
	}
	got, err := c.Get("keep.dat")
	if err != nil {
		t.Fatalf("Get after reconnect: %v", err)
	}
	if !bytes.Equal(got, []byte("stable")) {
		t.Errorf("Get = %q", got)
	}
}

// Timeout bounds each call, not the client's lifetime: a call made after
// Timeout has passed since the dial still succeeds on the same connection.
func TestLongLivedClientRearmsDeadline(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.Timeout = 300 * time.Millisecond
	if err := c.Put("a.dat", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	time.Sleep(400 * time.Millisecond)
	got, err := c.Get("a.dat")
	if err != nil {
		t.Fatalf("Get %v after the dial: %v", 400*time.Millisecond, err)
	}
	if !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Get = %q", got)
	}
}
