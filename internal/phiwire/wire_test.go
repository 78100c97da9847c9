package phiwire

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
	"repro/internal/trace"
)

func wallClock() sim.Time { return sim.Time(time.Now().UnixNano()) }

// startServer runs a wire server over a loopback listener.
func startServer(t *testing.T) (*Server, *phi.Server, string) {
	t.Helper()
	backend := phi.NewServer(wallClock, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	t.Cleanup(func() { srv.Close() })
	return srv, backend, ln.Addr().String()
}

func TestWireLookupRoundTrip(t *testing.T) {
	_, backend, addr := startServer(t)
	backend.RegisterPath("p", 1_000_000)
	for i := 0; i < 3; i++ {
		if err := backend.ReportStart("p"); err != nil {
			t.Fatal(err)
		}
	}
	c := Dial(addr, time.Second)
	defer c.Close()
	ctx, err := c.Lookup("p")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.N != 3 {
		t.Errorf("N = %d, want 3", ctx.N)
	}
}

func TestWireReportsUpdateBackend(t *testing.T) {
	_, backend, addr := startServer(t)
	c := Dial(addr, time.Second)
	defer c.Close()
	if err := c.ReportStart("edge"); err != nil {
		t.Fatal(err)
	}
	if got := backend.ActiveSenders("edge"); got != 1 {
		t.Errorf("active = %d, want 1", got)
	}
	err := c.ReportEnd("edge", phi.Report{
		Bytes: 1 << 20, Duration: sim.Second,
		AvgRTT: 180 * sim.Millisecond, MinRTT: 150 * sim.Millisecond,
		LossRate: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.ActiveSenders("edge"); got != 0 {
		t.Errorf("active after end = %d, want 0", got)
	}
	ctx, err := c.Lookup("edge")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Q <= 0 {
		t.Errorf("queue estimate = %v, want > 0", ctx.Q)
	}
}

func TestWireClientIsPhiStation(t *testing.T) {
	_, _, addr := startServer(t)
	c := Dial(addr, time.Second)
	defer c.Close()
	// The full phi.Client stack over the wire.
	pc := &phi.Client{Source: c, Reporter: c, Policy: phi.DefaultPolicy(), Path: "wire-path"}
	params := pc.ParamsForNewConnection()
	if !params.Valid() {
		t.Errorf("invalid params via wire: %v", params)
	}
	if pc.Fallbacks != 0 {
		t.Errorf("unexpected fallback: %d", pc.Fallbacks)
	}
}

func TestWireConcurrentClients(t *testing.T) {
	srv, backend, addr := startServer(t)
	const clients = 8
	const reqs = 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := Dial(addr, 2*time.Second)
			defer c.Close()
			for j := 0; j < reqs; j++ {
				if err := c.ReportStart("shared"); err != nil {
					t.Errorf("ReportStart: %v", err)
					return
				}
				if _, err := c.Lookup("shared"); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				if err := c.ReportEnd("shared", phi.Report{Bytes: 100}); err != nil {
					t.Errorf("ReportEnd: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := backend.ActiveSenders("shared"); got != 0 {
		t.Errorf("active after all ends = %d, want 0", got)
	}
	handled, rejected := srv.Stats()
	if handled != clients*reqs*3 {
		t.Errorf("handled = %d, want %d", handled, clients*reqs*3)
	}
	if rejected != 0 {
		t.Errorf("rejected = %d, want 0", rejected)
	}
}

func TestWireClientFailsFastWhenServerDown(t *testing.T) {
	// Reserve a port, then close it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := Dial(addr, 200*time.Millisecond)
	defer c.Close()
	if _, err := c.Lookup("p"); err == nil {
		t.Fatal("lookup against dead server succeeded")
	}
	// The phi.Client must fall back, not fail.
	pc := &phi.Client{Source: c, Policy: phi.DefaultPolicy(), Path: "p"}
	params := pc.ParamsForNewConnection()
	if !params.Valid() || pc.Fallbacks != 1 {
		t.Errorf("fallback broken: params=%v fallbacks=%d", params, pc.Fallbacks)
	}
}

func TestWireClientRecoversAfterServerRestart(t *testing.T) {
	backend := phi.NewServer(wallClock, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln) //nolint:errcheck
	c := Dial(addr, 500*time.Millisecond)
	defer c.Close()
	if _, err := c.Lookup("p"); err != nil {
		t.Fatalf("first lookup: %v", err)
	}
	srv.Close()
	if _, err := c.Lookup("p"); err == nil {
		t.Fatal("lookup against closed server succeeded")
	}
	// Restart on the same address; client reconnects lazily.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := NewServer(backend, nil)
	go srv2.Serve(ln2) //nolint:errcheck
	defer srv2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Lookup("p"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client did not recover after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWireServerRejectsMalformedFrames(t *testing.T) {
	srv, _, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown type.
	if err := writeFrame(conn, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != MsgError {
		t.Errorf("unknown type answered %x, want error", resp[0])
	}
	// Truncated lookup.
	if err := writeFrame(conn, []byte{MsgLookup, 0xFF}); err != nil {
		t.Fatal(err)
	}
	resp, err = readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != MsgError {
		t.Errorf("truncated lookup answered %x, want error", resp[0])
	}
	// Empty frame.
	if err := writeFrame(conn, nil); err != nil {
		t.Fatal(err)
	}
	if resp, err = readFrame(conn); err != nil || resp[0] != MsgError {
		t.Errorf("empty frame: resp=%x err=%v", resp, err)
	}
	if _, rejected := srv.Stats(); rejected != 3 {
		t.Errorf("rejected = %d, want 3", rejected)
	}
}

func TestWireOversizeFrameClosesConnection(t *testing.T) {
	_, _, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	hdr[0] = 0xFF // 4 GB frame: protocol violation
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept talking after oversize frame")
	}
}

func TestWirePathKeyTooLong(t *testing.T) {
	c := Dial("127.0.0.1:1", time.Second)
	defer c.Close()
	long := phi.PathKey(strings.Repeat("x", MaxPathLen+1))
	if _, err := c.Lookup(long); err == nil {
		t.Error("oversize path key accepted")
	}
	if err := c.ReportStart(long); err == nil {
		t.Error("oversize path key accepted in report")
	}
	if err := c.ReportEnd(long, phi.Report{}); err == nil {
		t.Error("oversize path key accepted in end report")
	}
}

// Property: report-end encoding round-trips for arbitrary values.
func TestReportEndRoundTripProperty(t *testing.T) {
	f := func(pathRaw []byte, bytes, dur, avg, min int64, loss float64) bool {
		if len(pathRaw) > 64 {
			pathRaw = pathRaw[:64]
		}
		path := phi.PathKey(pathRaw)
		r := phi.Report{Bytes: bytes, Duration: sim.Time(dur),
			AvgRTT: sim.Time(avg), MinRTT: sim.Time(min), LossRate: loss}
		enc, err := encodeReport(MsgReportEnd, path, r)
		if err != nil {
			return false
		}
		gotPath, gotR, err := decodeReportEnd(enc[1:])
		if err != nil {
			return false
		}
		if gotPath != path {
			return false
		}
		// NaN != NaN; compare bit patterns via equality special case.
		if gotR.LossRate != r.LossRate && !(gotR.LossRate != gotR.LossRate && r.LossRate != r.LossRate) {
			return false
		}
		gotR.LossRate, r.LossRate = 0, 0
		return gotR == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: context encoding round-trips.
func TestContextRoundTripProperty(t *testing.T) {
	f := func(u float64, q int64, n int32) bool {
		c := phi.Context{U: u, Q: sim.Time(q), N: int(n)}
		dec, err := decodeContext(encodeContext(c)[1:])
		if err != nil {
			return false
		}
		if dec.U != c.U && !(dec.U != dec.U && c.U != c.U) {
			return false
		}
		return dec.Q == c.Q && dec.N == c.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello phi")
	frame := append(beginFrame(nil, payload[0], trace.SpanContext{}), payload[1:]...)
	if err := flushFrame(&buf, frame); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: &buf}
	got, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("round trip = %q", got)
	}
	// Oversize write is refused, and nothing of it reaches the writer.
	if err := flushFrame(&buf, make([]byte, 4+MaxFrame+1)); err != ErrFrameTooLarge || buf.Len() != 0 {
		t.Errorf("oversize write err = %v, %d bytes written", err, buf.Len())
	}
	// Truncated read fails cleanly.
	buf.Write([]byte{0, 0, 0, 10, 'x'})
	if _, err := fr.next(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame read: err = %v", err)
	}
}

// TestAppendFormsMatchReference: the in-place encoders put on the wire
// exactly the bytes the per-frame reference encoders do — the four ops
// plain and traced, Hello, context, OK and error — including when the
// buffer they reuse held a longer frame before.
func TestAppendFormsMatchReference(t *testing.T) {
	const path = "us-east/eu-west"
	sc := trace.SpanContext{Trace: 0x0102030405060708, Span: 0x1112131415161718}
	lookup, _ := encodeLookup(path)
	start, _ := encodeReportStart(path)
	end, _ := encodeReport(MsgReportEnd, path, benchReport)
	progress, _ := encodeReport(MsgProgress, path, benchReport)
	ctx := phi.Context{U: 0.73, Q: 9 * sim.Millisecond, N: 17}
	long := strings.Repeat("x", 2000)

	type golden struct {
		name  string
		build func([]byte) []byte
		ref   []byte // reference payload; framed traced when name ends in "-traced"
	}
	cases := []golden{
		{"error", func(b []byte) []byte { return appendError(b, "boom") }, encodeError("boom")},
		{"error-trimmed", func(b []byte) []byte { return appendError(b, long) }, encodeError(long)},
		{"context", func(b []byte) []byte { return appendContext(b, ctx) }, encodeContext(ctx)},
		{"ok", func(b []byte) []byte { return beginFrame(b, MsgOK, trace.SpanContext{}) }, []byte{MsgOK}},
		{"hello", func(b []byte) []byte { return appendHello(b, MsgHello, ProtocolVersion, CapTrace) }, encodeHello(MsgHello, ProtocolVersion, CapTrace)},
		{"hello-ack", func(b []byte) []byte { return appendHello(b, MsgHelloAck, ProtocolVersion, CapTrace) }, encodeHello(MsgHelloAck, ProtocolVersion, CapTrace)},
	}
	for _, o := range []struct {
		name string
		op   phi.Op
		ref  []byte
	}{
		{"lookup", phi.Op{Kind: phi.OpLookup, Path: path}, lookup},
		{"report-start", phi.Op{Kind: phi.OpReportStart, Path: path}, start},
		{"report-end", phi.Op{Kind: phi.OpReportEnd, Path: path, Report: benchReport}, end},
		{"progress", phi.Op{Kind: phi.OpReportProgress, Path: path, Report: benchReport}, progress},
	} {
		cases = append(cases,
			golden{o.name, func(b []byte) []byte { return appendOp(b, trace.SpanContext{}, o.op) }, o.ref},
			golden{o.name + "-traced", func(b []byte) []byte { return appendOp(b, sc, o.op) }, o.ref})
	}
	wbuf := bytes.Repeat([]byte{0xAA}, 256) // stale bytes to be overwritten
	for _, tc := range cases {
		var want, got bytes.Buffer
		var err error
		if strings.HasSuffix(tc.name, "-traced") {
			err = writeTracedFrame(&want, tc.ref, sc)
		} else {
			err = writeFrame(&want, tc.ref)
		}
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		wbuf = tc.build(wbuf)
		if err := flushFrame(&got, wbuf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: frame %x, reference %x", tc.name, got.Bytes(), want.Bytes())
		}
	}
}

func TestServeAndAddr(t *testing.T) {
	backend := phi.NewServer(wallClock, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	if srv.Addr() != nil {
		t.Error("Addr before serve should be nil")
	}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(listen()) }()
	// Wait for the server to adopt the listener.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never bound")
		}
		time.Sleep(time.Millisecond)
	}
	c := Dial(srv.Addr().String(), time.Second)
	defer c.Close()
	if _, err := c.Lookup("p"); err != nil {
		t.Fatalf("lookup via Serve: %v", err)
	}
	srv.Close()
	if err := <-done; err == nil {
		t.Error("Serve should return an error after Close")
	}
	// Serving again after close is refused.
	ln := listen()
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("serve after close succeeded")
	}
}

func TestErrFromResponse(t *testing.T) {
	if errFromResponse(nil) == nil {
		t.Error("empty response should error")
	}
	if errFromResponse([]byte{MsgOK}) != nil {
		t.Error("OK response misread as error")
	}
	// Well-formed error message.
	resp := encodeError("boom")
	err := errFromResponse(resp)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
	// Truncated error payload.
	if errFromResponse([]byte{MsgError, 0xFF}) == nil {
		t.Error("truncated error accepted")
	}
	// Oversize messages are trimmed on encode.
	long := encodeError(strings.Repeat("x", 2000))
	if len(long) > 600 {
		t.Errorf("error encoding not trimmed: %d bytes", len(long))
	}
}

func TestDecodeTruncatedPayloads(t *testing.T) {
	if _, err := decodeContext([]byte{1, 2}); err == nil {
		t.Error("short context accepted")
	}
	if _, err := decodeContext(make([]byte, 8)); err == nil {
		t.Error("context missing q accepted")
	}
	if _, err := decodeContext(make([]byte, 16)); err == nil {
		t.Error("context missing n accepted")
	}
	// Report-end truncated at every field boundary.
	full, _ := encodeReport(MsgReportEnd, "p", phi.Report{Bytes: 1})
	for cut := 1; cut < len(full)-1; cut += 3 {
		if _, _, err := decodeReportEnd(full[1:cut]); err == nil && cut < len(full)-1 {
			// Only the complete payload may parse.
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestWireServerErrorResponsePath(t *testing.T) {
	// A client whose request the server answers with an error frame must
	// surface it.
	_, _, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// ReportStart with malformed body yields MsgError; the client cannot
	// encode one, so simulate by raw frames.
	if err := writeFrame(conn, []byte{MsgReportStart}); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil || resp[0] != MsgError {
		t.Fatalf("resp=%x err=%v", resp, err)
	}
	if e := errFromResponse(resp); e == nil {
		t.Error("error response not converted")
	}
}

func TestPolicyDistribution(t *testing.T) {
	srv, _, addr := startServer(t)
	c := Dial(addr, time.Second)
	defer c.Close()

	// Before publication: a clean error, and the phi.Client default path.
	if _, err := c.FetchPolicy(); err == nil {
		t.Error("fetch with no policy published succeeded")
	}
	if err := srv.SetPolicy(phi.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchPolicy()
	if err != nil {
		t.Fatal(err)
	}
	want := phi.DefaultPolicy()
	if len(got.Rules) != len(want.Rules) || got.Default != want.Default {
		t.Errorf("fetched policy differs: %d rules", len(got.Rules))
	}
	// The fetched policy drives decisions identically.
	for _, u := range []float64{0.1, 0.5, 0.9} {
		if got.Params(phi.Context{U: u}) != want.Params(phi.Context{U: u}) {
			t.Errorf("decision differs at u=%v", u)
		}
	}
	// A complete zero-config sender bootstrap: fetch policy, then use it.
	pc := &phi.Client{Source: c, Reporter: c, Policy: got, Path: "p"}
	if !pc.ParamsForNewConnection().Valid() {
		t.Error("bootstrap params invalid")
	}
	// Unpublish.
	if err := srv.SetPolicy(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchPolicy(); err == nil {
		t.Error("fetch after unpublish succeeded")
	}
}

// Property: the server's request handler never panics on arbitrary
// payloads — every input yields some response frame.
func TestServerHandleNeverPanicsProperty(t *testing.T) {
	backend := phi.NewServer(wallClock, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	_ = srv.SetPolicy(phi.DefaultPolicy())
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("handle panicked on %x: %v", raw, r)
			}
		}()
		resp := handle(srv, raw)
		return len(resp) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWireProgressReports(t *testing.T) {
	_, backend, addr := startServer(t)
	backend.RegisterPath("long", 8_000_000)
	c := Dial(addr, time.Second)
	defer c.Close()
	if err := c.ReportStart("long"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.ReportProgress("long", phi.Report{Bytes: 1_000_000,
			AvgRTT: 200 * sim.Millisecond, MinRTT: 150 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	// Progress keeps the sender registered.
	if got := backend.ActiveSenders("long"); got != 1 {
		t.Errorf("active = %d, want 1", got)
	}
	ctx, err := c.Lookup("long")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.N != 1 || ctx.U <= 0 {
		t.Errorf("ctx = %v", ctx)
	}
	if err := c.ReportEnd("long", phi.Report{Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	if got := backend.ActiveSenders("long"); got != 0 {
		t.Errorf("active after end = %d", got)
	}
}
