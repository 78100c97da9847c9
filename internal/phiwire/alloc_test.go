package phiwire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Allocation regression gates for the wire codec. Each pin is a ceiling
// enforced by the alloc-gate step: never loosen one without a recorded
// reason.
//
// Where the line stands (go1.24, this container), against the per-frame
// codec these forms replaced (now the reference peer in
// reference_test.go):
//
//	                   per-frame   in place
//	encodeLookup       3           0   appendOp into the connection's wbuf
//	encodeReportStart  3           0
//	encodeReport       5           0
//	encodeContext      2           0   appendContext
//	decodeReportEnd    1           1   the path-string copy, on a memo miss
//	decodeMemoHit      -           0   same path as the previous request
//	decodeContext      0           0
//	readFrame          2           0   frameReader.next, buffer reused
func TestAllocsCodec(t *testing.T) {
	ctx := phi.Context{U: 0.73, Q: 9 * sim.Millisecond, N: 17}
	sc := trace.SpanContext{Trace: 7, Span: 9}
	end := phi.Op{Kind: phi.OpReportEnd, Path: "us-east/eu-west", Report: benchReport}
	reportPayload := appendOp(nil, trace.SpanContext{}, end)[5:]
	ctxPayload := appendContext(nil, ctx)[5:]
	var wbuf []byte
	var last, miss phi.PathKey
	// Enough frames for every run, delivered a frame and a half at a time
	// so the reader's compaction runs too.
	frame := mustFrame(t, appendOp(nil, sc, end)[4:])
	fr := frameReader{r: &chunkReader{data: bytes.Repeat(frame, 600), chunks: []byte{byte(len(frame) * 3 / 2)}}}

	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"encodeLookup", 0, func() { wbuf = appendOp(wbuf, sc, phi.Op{Kind: phi.OpLookup, Path: "us-east/eu-west"}) }},
		{"encodeReportStart", 0, func() { wbuf = appendOp(wbuf, sc, phi.Op{Kind: phi.OpReportStart, Path: "us-east/eu-west"}) }},
		{"encodeReport", 0, func() { wbuf = appendOp(wbuf, sc, end) }},
		{"encodeContext", 0, func() { wbuf = appendContext(wbuf, ctx) }},
		{"decodeReportEnd", 1, func() { miss = ""; decodeOp(MsgReportEnd, reportPayload, &miss) }},
		{"decodeMemoHit", 0, func() { decodeOp(MsgReportEnd, reportPayload, &last) }},
		{"decodeContext", 0, func() { decodeContext(ctxPayload) }},
		{"readFrame", 0, func() {
			if _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(500, tc.fn)
			if got > tc.max {
				t.Errorf("%s = %.1f allocs/op, pinned max %.0f — efficiency regression", tc.name, got, tc.max)
			}
			t.Logf("%s: %.1f allocs/op (pin %.0f)", tc.name, got, tc.max)
		})
	}
}

// TestAllocsRoundTrip pins the whole wire path — client encode, two
// socket crossings, server decode, a real phi.Server, response encode,
// client decode — over a loopback connection. AllocsPerRun counts every
// goroutine's mallocs, so the server's side is in the number. What is
// left is phi.Server's own amortized window growth.
func TestAllocsRoundTrip(t *testing.T) {
	_, backend, addr := startServer(t)
	const a, b = phi.PathKey("us-east/eu-west"), phi.PathKey("us-west/ap-south")
	backend.RegisterPath(a, 1_000_000)
	backend.RegisterPath(b, 1_000_000)
	c := Dial(addr, 5*time.Second)
	defer c.Close()

	lifecycle := func(path phi.PathKey) {
		if _, err := c.Lookup(path); err != nil {
			t.Fatal(err)
		}
		if err := c.ReportStart(path); err != nil {
			t.Fatal(err)
		}
		if err := c.ReportEnd(path, benchReport); err != nil {
			t.Fatal(err)
		}
	}
	// Warm to steady state: connection up, buffers and report windows at
	// their working capacity.
	for i := 0; i < 300; i++ {
		lifecycle(a)
		lifecycle(b)
	}

	if got := testing.AllocsPerRun(500, func() { lifecycle(a) }); got > 1 {
		t.Errorf("lifecycle on one path = %.2f allocs, pinned max 1 — efficiency regression", got)
	} else {
		t.Logf("lifecycle on one path: %.2f allocs (pin 1)", got)
	}

	// Alternating paths defeat the server's last-path memo: every request
	// pays the one path copy, and nothing else.
	next := a
	if got := testing.AllocsPerRun(500, func() {
		if _, err := c.Lookup(next); err != nil {
			t.Fatal(err)
		}
		if next == a {
			next = b
		} else {
			next = a
		}
	}); got > 1 {
		t.Errorf("lookup on alternating paths = %.2f allocs/op, pinned max 1 — efficiency regression", got)
	} else {
		t.Logf("lookup on alternating paths: %.2f allocs/op (pin 1)", got)
	}
}
