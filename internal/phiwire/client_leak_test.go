package phiwire

// Regression tests for the client's connection lifecycle under repeated
// failures: every failed round trip must close the connection it used,
// and a closed client must never re-dial (the use-after-Close leak).

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/phi"
)

// countedConn tracks Close calls on the wrapped connection.
type countedConn struct {
	net.Conn
	closed *atomic.Int64
	once   atomic.Bool
}

func (c *countedConn) Close() error {
	if c.once.CompareAndSwap(false, true) {
		c.closed.Add(1)
	}
	return c.Conn.Close()
}

// countingDialer wraps the real dialer, counting opens and closes.
type countingDialer struct {
	opened atomic.Int64
	closed atomic.Int64
}

func (d *countingDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	d.opened.Add(1)
	return &countedConn{Conn: conn, closed: &d.closed}, nil
}

// TestClientNoLeakUnderRepeatedFailures drives many failing round trips
// against a server that accepts and immediately closes every connection.
// Each attempt dials a fresh connection; all but the live one must have
// been closed.
func TestClientNoLeakUnderRepeatedFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close() // slam the door: every request will fail mid-flight
		}
	}()

	c := Dial(ln.Addr().String(), 200*time.Millisecond)
	d := &countingDialer{}
	c.dial = d.dial
	defer c.Close()

	const attempts = 50
	for i := 0; i < attempts; i++ {
		if _, err := c.Lookup("p"); err == nil {
			t.Fatal("lookup unexpectedly succeeded against a slamming server")
		}
	}
	if leaked := d.opened.Load() - d.closed.Load(); leaked > 1 {
		t.Errorf("leaked %d connections after %d failed round trips (opened %d, closed %d)",
			leaked, attempts, d.opened.Load(), d.closed.Load())
	}
}

// TestClientUseAfterCloseDoesNotReconnect: Close is final. A request on
// a closed client fails with net.ErrClosed and must not dial.
func TestClientUseAfterCloseDoesNotReconnect(t *testing.T) {
	srv, _, addr := startServer(t)
	defer srv.Close()

	c := Dial(addr, time.Second)
	d := &countingDialer{}
	c.dial = d.dial
	if err := c.ReportStart("p"); err != nil {
		t.Fatal(err)
	}
	dialsBefore := d.opened.Load()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("p"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("lookup after Close: err = %v, want net.ErrClosed", err)
	}
	if err := c.ReportEnd("p", phi.Report{Bytes: 1}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("report after Close: err = %v, want net.ErrClosed", err)
	}
	if d.opened.Load() != dialsBefore {
		t.Errorf("closed client re-dialed: %d dials after close", d.opened.Load()-dialsBefore)
	}
	if leaked := d.opened.Load() - d.closed.Load(); leaked != 0 {
		t.Errorf("%d connections alive after Close", leaked)
	}
	// Idempotent close.
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestClientServerErrorKeepsConnection: an application-level error
// response must not churn the connection (the transport is healthy).
func TestClientServerErrorKeepsConnection(t *testing.T) {
	srv, _, addr := startServer(t)
	defer srv.Close()

	c := Dial(addr, time.Second)
	d := &countingDialer{}
	c.dial = d.dial
	defer c.Close()

	// No policy published: FetchPolicy yields a ServerError.
	for i := 0; i < 5; i++ {
		_, err := c.FetchPolicy()
		var se ServerError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want ServerError", err)
		}
	}
	if d.opened.Load() != 1 {
		t.Errorf("server errors churned connections: %d dials, want 1", d.opened.Load())
	}
}

// TestClientStaleReplyNeverCrossesReconnect: a reply arrives half-written,
// the deadline fires, and the client drops the connection with half a
// frame in its read buffer. The next call dials again and must get its
// own reply — the buffered bytes of the dead connection are forgotten,
// not parsed as the start of the new connection's stream.
func TestClientStaleReplyNeverCrossesReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	defer close(release)
	stale := mustFrame(t, encodeContext(phi.Context{U: 0.25, Q: 1, N: 111}))
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int) {
				defer conn.Close()
				if _, err := readFrame(conn); err != nil {
					return
				}
				if n == 0 {
					// Header and 5 of the context's 25 bytes, then silence.
					conn.Write(stale[:9])
					<-release
					return
				}
				writeFrame(conn, encodeContext(phi.Context{U: 0.5, Q: 2, N: 222}))
				<-release
			}(n)
		}
	}()

	c := Dial(ln.Addr().String(), 100*time.Millisecond)
	defer c.Close()
	var ne net.Error
	if _, err := c.Lookup("p"); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("half-written reply: err = %v, want a timeout", err)
	}
	ctx, err := c.Lookup("p")
	if err != nil {
		t.Fatalf("lookup on the re-dialled connection: %v", err)
	}
	if ctx != (phi.Context{U: 0.5, Q: 2, N: 222}) {
		t.Fatalf("re-dialled connection decoded %+v, want its own reply (N 222)", ctx)
	}
}

// TestSharedClientConcurrentCalls: two goroutines share one Client, and
// with it one write buffer and one read buffer. Each call decodes its
// reply before releasing the lock, so each goroutine must only ever see
// the context of the path it asked for. Run with -race -count=10.
func TestSharedClientConcurrentCalls(t *testing.T) {
	_, backend, addr := startServer(t)
	c := Dial(addr, 2*time.Second)
	defer c.Close()
	paths := []phi.PathKey{"shared/one", "shared/two"}
	for i, p := range paths {
		for j := 0; j <= i; j++ { // path i carries i+1 active senders
			if err := backend.ReportStart(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(want int, p phi.PathKey) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				ctx, err := c.Lookup(p)
				if err != nil {
					t.Errorf("lookup %s: %v", p, err)
					return
				}
				if ctx.N != want {
					t.Errorf("lookup %s: N = %d, want %d (another call's reply)", p, ctx.N, want)
					return
				}
				if err := c.ReportProgress(p, phi.Report{Bytes: 1}); err != nil {
					t.Errorf("progress %s: %v", p, err)
					return
				}
			}
		}(i+1, p)
	}
	wg.Wait()
}
