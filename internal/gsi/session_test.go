package gsi

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/testpki"
)

// sessionPair runs a multiplexed session over an authenticated in-memory
// channel and returns (initiating side, accepting side).
func sessionPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	cli, srv, err := connectPair(t, testpki.User(t, "sess-alice"), testpki.Host(t, "sess.test"), defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	cs, ss := NewClientSession(cli), NewServerSession(srv)
	// A lost stream fails the test at Accept instead of hanging it.
	guard := time.AfterFunc(10*time.Second, func() { ss.Close() })
	t.Cleanup(func() { guard.Stop() })
	return cs, ss
}

// echo accepts one stream and answers its first message with itself.
func echo(t *testing.T, ss *Session) {
	t.Helper()
	st, err := ss.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	msg, err := st.ReadMessage()
	if err != nil {
		t.Fatalf("acceptor read: %v", err)
	}
	if err := st.WriteMessage(msg); err != nil {
		t.Fatalf("acceptor write: %v", err)
	}
}

// Streams opened in one order may write their first frames in the other;
// the acceptor must serve both rather than drop the later-opened one's
// frame as stale.
func TestStreamsWritingOutOfOpenOrderAreServed(t *testing.T) {
	cs, ss := sessionPair(t)
	first, err := cs.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, err := cs.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()

	for _, st := range []*Stream{second, first} {
		if err := st.WriteMessage([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		echo(t, ss)
		st.SetMessageTimeout(5 * time.Second)
		if got, err := st.ReadMessage(); err != nil || string(got) != "ping" {
			t.Fatalf("reply = %q, %v", got, err)
		}
	}
}

// The opener's context bounds a stream read; the session and its later
// streams carry on, and the late reply to the abandoned stream is dropped.
func TestStreamReadHonoursContext(t *testing.T) {
	cs, ss := sessionPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	st, err := cs.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMessage([]byte("stalled")); err != nil {
		t.Fatal(err)
	}
	peer, err := ss.Accept()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := st.ReadMessage(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read past the context deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("read returned after %v; want the 100ms context deadline", elapsed)
	}
	st.Close()
	if err := peer.WriteMessage([]byte("late")); err != nil {
		t.Fatalf("late reply: %v", err)
	}

	next, err := cs.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if err := next.WriteMessage([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	echo(t, ss)
	next.SetMessageTimeout(5 * time.Second)
	if got, err := next.ReadMessage(); err != nil || string(got) != "ping" {
		t.Fatalf("reply on the next stream = %q, %v", got, err)
	}
}
