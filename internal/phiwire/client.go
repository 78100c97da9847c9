package phiwire

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/trace"
)

// Client-side span names; those of the four operations by phi.OpKind.
var (
	opClientDial  = trace.Name("client.dial")
	clientOpNames = [...]trace.Ref{
		phi.OpLookup:         trace.Name("client.lookup"),
		phi.OpReportStart:    trace.Name("client.report_start"),
		phi.OpReportEnd:      trace.Name("client.report_end"),
		phi.OpReportProgress: trace.Name("client.report_progress"),
	}
)

// Client-side sub-span stage names: finer-grained than spans (no ring
// writes, no IDs), they exist purely for the /debug/stages latency
// decomposition. Only measured when a StageAggregator is attached to
// the client tracer's collector.
var (
	stClientEncode = trace.Name("client.encode") // request serialization
	stClientWrite  = trace.Name("client.write")  // frame write syscall
	stClientAwait  = trace.Name("client.await")  // write done -> response read (network + server)
)

// ServerError is an application-level error returned by the server (the
// request was delivered and refused — e.g. a degraded cluster), as
// opposed to a transport failure. Callers distinguish the two with
// errors.As: transport errors mean retry/reconnect, server errors mean
// the control plane answered and said no.
type ServerError string

func (e ServerError) Error() string { return "phiwire: server error: " + string(e) }

// Client is a phi.Station over TCP. It holds one connection, serializes
// requests over it, reconnects lazily after failures, and applies a
// per-request deadline. All methods are safe for concurrent use.
//
// Errors are returned rather than retried: the phi.Client fallback policy
// (use defaults when the control plane is unreachable) is the intended
// consumer.
//
// After Close, all requests fail with net.ErrClosed: a closed client
// never re-dials, so it cannot leak a connection nobody will close.
type Client struct {
	addr    string
	timeout time.Duration

	// dial establishes the connection; tests inject failures and count
	// connections through it.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	// tracer records per-request spans (nil = untraced). Set before
	// first use. With a tracer set the client also negotiates the trace
	// capability at dial time (see connTraced).
	tracer *trace.Tracer

	// wire is the optional resource-attribution surface: frames, conn
	// Read/Write calls (≈ syscalls), and bytes (nil = unaccounted). Set
	// before first use; connections dialed afterwards are counted.
	wire *obs.WireCounters

	mu     sync.Mutex
	conn   net.Conn
	closed bool

	// wbuf is the buffer requests are encoded into in place, reused so
	// each frame goes out in one Write without a per-request allocation;
	// fr is the connection's frame reader, whose one buffer replies are
	// decoded from in place. A reply aliases that buffer, so it is decoded
	// before mu is released. Both guarded by mu.
	wbuf []byte
	fr   frameReader

	// connTraced records whether the current connection's peer
	// acknowledged CapTrace in the Hello exchange; only then do request
	// frames carry trace headers. Reset on every reconnect, so the
	// client adapts if it is pointed at an older server. Guarded by mu.
	connTraced bool
}

// DefaultTimeout bounds each request round trip.
const DefaultTimeout = 2 * time.Second

// Dial creates a client for the server at addr. The connection itself is
// established lazily on first use. timeout <= 0 selects DefaultTimeout.
func Dial(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{
		addr:    addr,
		timeout: timeout,
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
}

// SetTracer attaches (or detaches, with nil) the span tracer. Call
// before the client is shared across goroutines.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer = t }

// SetWire attaches (or detaches, with nil) the wire accounting counters.
// Call before the client is shared across goroutines. One counter set
// may be shared by many clients to account a whole pool.
func (c *Client) SetWire(w *obs.WireCounters) { c.wire = w }

// Close tears down the connection and marks the client closed; any
// later request fails with net.ErrClosed instead of reconnecting.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// connect makes the connection ready for one exchange (mu held): it
// dials and negotiates if there is none, as a client.dial span under sc,
// and arms the per-request deadline. A fresh connection resets the frame
// reader, so bytes of a dropped connection can never be parsed as the
// next one's reply. Every failure path closes and forgets the connection
// before returning, so repeated failures churn through at most one live
// connection.
func (c *Client) connect(sc trace.SpanContext) error {
	if c.closed {
		return net.ErrClosed
	}
	if c.conn == nil {
		dsp := c.tracer.Start(sc, opClientDial)
		conn, err := c.dial(c.addr, c.timeout)
		if err != nil {
			dsp.End(err)
			return err
		}
		c.conn = obs.CountConn(conn, c.wire)
		c.fr.reset(c.conn)
		if c.tracer != nil {
			if err := c.negotiate(); err != nil {
				dsp.End(err)
				c.drop()
				return err
			}
		}
		dsp.End(nil)
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		c.drop()
		return err
	}
	return nil
}

// exchange writes the request frame built in c.wbuf and reads the one
// response (mu held; requests are small and the protocol is strictly
// request/response). The payload it returns aliases the read buffer:
// decode it before releasing mu.
func (c *Client) exchange() ([]byte, error) {
	st := c.tracer.Stages()
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	if err := flushFrame(c.conn, c.wbuf); err != nil {
		c.drop()
		return nil, err
	}
	c.wire.FrameWritten()
	if st != nil {
		now := time.Now()
		st.Observe(stClientWrite, now.Sub(t0))
		t0 = now
	}
	resp, err := c.fr.next()
	if err != nil {
		c.drop()
		return nil, err
	}
	c.wire.FrameRead()
	if st != nil {
		st.Observe(stClientAwait, time.Since(t0))
	}
	return resp, nil
}

// negotiate runs the Hello exchange on a fresh connection (mu held).
// Any HelloAck carrying CapTrace turns trace headers on for this
// connection; an error reply means an old (version 1) peer, which is not
// a failure — the client just stays on plain frames. Only transport
// errors propagate.
func (c *Client) negotiate() error {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	c.wbuf = appendHello(c.wbuf, MsgHello, ProtocolVersion, CapTrace)
	resp, err := c.exchange()
	if err != nil {
		return err
	}
	c.connTraced = false
	if len(resp) > 0 && resp[0] == MsgHelloAck {
		_, caps, derr := decodeHello(resp[1:])
		c.connTraced = derr == nil && caps&CapTrace != 0
	}
	return nil
}

func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connTraced = false
}

// errFromResponse converts an error response into a Go error.
func errFromResponse(resp []byte) error {
	if len(resp) == 0 {
		return ErrMalformed
	}
	if resp[0] != MsgError {
		return nil
	}
	msg, _, err := readString(resp[1:])
	if err != nil {
		return ErrMalformed
	}
	return ServerError(msg)
}

// do is the client's one body: open the client span, encode op into the
// connection's write buffer, one exchange, decode the answer the
// operation expects (a context for a lookup, an OK for a report). The
// span it records (and propagates on the wire, once the peer has
// acknowledged CapTrace) is a child of parent. With no tracer attached,
// the parent context itself is forwarded, so an untraced relay still
// preserves the caller's trace across processes.
func (c *Client) do(parent trace.SpanContext, op phi.Op) (phi.Context, error) {
	if len(op.Path) > MaxPathLen {
		return phi.Context{}, errPathTooLong
	}
	sp := c.tracer.Start(parent, clientOpNames[op.Kind])
	// On the wire goes the client's own span when it has a tracer, the
	// caller's otherwise.
	sc := sp.Context()
	if !sc.Valid() {
		sc = parent
	}
	c.mu.Lock()
	ctx, err := c.doLocked(sc, op)
	c.mu.Unlock()
	sp.End(err)
	return ctx, err
}

// doLocked is do's critical section (mu held): everything that touches
// the connection and its two buffers, the reply's decode included.
func (c *Client) doLocked(sc trace.SpanContext, op phi.Op) (phi.Context, error) {
	if err := c.connect(sc); err != nil {
		return phi.Context{}, err
	}
	if !c.connTraced {
		sc = trace.SpanContext{}
	}
	st := c.tracer.Stages()
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	c.wbuf = appendOp(c.wbuf, sc, op)
	if st != nil {
		st.Observe(stClientEncode, time.Since(t0))
	}
	resp, err := c.exchange()
	if err == nil {
		err = errFromResponse(resp)
	}
	switch {
	case err != nil:
		return phi.Context{}, err
	case op.Kind == phi.OpLookup && resp[0] == MsgContext:
		return decodeContext(resp[1:])
	case op.Kind != phi.OpLookup && resp[0] == MsgOK:
		return phi.Context{}, nil
	}
	return phi.Context{}, ErrMalformed
}

// Lookup implements phi.ContextSource.
func (c *Client) Lookup(path phi.PathKey) (phi.Context, error) {
	return c.LookupSpan(trace.SpanContext{}, path)
}

// LookupSpan is Lookup joined to a caller's trace.
func (c *Client) LookupSpan(parent trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	return c.do(parent, phi.Op{Kind: phi.OpLookup, Path: path})
}

// ReportStart implements phi.Reporter.
func (c *Client) ReportStart(path phi.PathKey) error {
	return c.ReportStartSpan(trace.SpanContext{}, path)
}

// ReportStartSpan is ReportStart joined to a caller's trace.
func (c *Client) ReportStartSpan(parent trace.SpanContext, path phi.PathKey) error {
	_, err := c.do(parent, phi.Op{Kind: phi.OpReportStart, Path: path})
	return err
}

// ReportEnd implements phi.Reporter.
func (c *Client) ReportEnd(path phi.PathKey, r phi.Report) error {
	return c.ReportEndSpan(trace.SpanContext{}, path, r)
}

// ReportEndSpan is ReportEnd joined to a caller's trace.
func (c *Client) ReportEndSpan(parent trace.SpanContext, path phi.PathKey, r phi.Report) error {
	_, err := c.do(parent, phi.Op{Kind: phi.OpReportEnd, Path: path, Report: r})
	return err
}

// ReportProgress sends a mid-connection report (long flows, Section
// 2.2.2's multiple-communications refinement).
func (c *Client) ReportProgress(path phi.PathKey, r phi.Report) error {
	return c.ReportProgressSpan(trace.SpanContext{}, path, r)
}

// ReportProgressSpan is ReportProgress joined to a caller's trace.
func (c *Client) ReportProgressSpan(parent trace.SpanContext, path phi.PathKey, r phi.Report) error {
	_, err := c.do(parent, phi.Op{Kind: phi.OpReportProgress, Path: path, Report: r})
	return err
}

// FetchPolicy retrieves the server's published parameter policy, so a
// freshly booted sender needs to be configured with nothing but the
// context server's address.
func (c *Client) FetchPolicy() (*phi.Policy, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connect(trace.SpanContext{}); err != nil {
		return nil, err
	}
	c.wbuf = beginFrame(c.wbuf, MsgGetPolicy, trace.SpanContext{})
	resp, err := c.exchange()
	if err != nil {
		return nil, err
	}
	if err := errFromResponse(resp); err != nil {
		return nil, err
	}
	if resp[0] != MsgPolicy {
		return nil, ErrMalformed
	}
	// Unmarshal copies what it keeps, so nothing of the read buffer
	// outlives the lock.
	var p phi.Policy
	if err := json.Unmarshal(resp[1:], &p); err != nil {
		return nil, fmt.Errorf("phiwire: bad policy payload: %w", err)
	}
	return &p, nil
}

// statically assert the interface.
var _ phi.Station = (*Client)(nil)
