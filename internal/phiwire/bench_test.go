package phiwire

// Microbenchmarks for the wire codec hot path (every request crosses
// encode/decode twice) and for a full in-process handle() round trip.

import (
	"testing"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
	"repro/internal/trace"
)

var benchReport = phi.Report{
	Bytes:    1 << 20,
	Duration: 1200 * sim.Millisecond,
	AvgRTT:   40 * sim.Millisecond,
	MinRTT:   31 * sim.Millisecond,
	LossRate: 0.002,
}

func BenchmarkEncodeLookup(b *testing.B) {
	var wbuf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wbuf = appendOp(wbuf, trace.SpanContext{}, phi.Op{Kind: phi.OpLookup, Path: "us-east/eu-west"})
	}
}

func BenchmarkEncodeReportEnd(b *testing.B) {
	var wbuf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wbuf = appendOp(wbuf, trace.SpanContext{}, phi.Op{Kind: phi.OpReportEnd, Path: "us-east/eu-west", Report: benchReport})
	}
}

// BenchmarkDecodeReportEnd decodes one path over and over, so after the
// first iteration it measures the memo hit.
func BenchmarkDecodeReportEnd(b *testing.B) {
	payload := appendOp(nil, trace.SpanContext{}, phi.Op{Kind: phi.OpReportEnd, Path: "us-east/eu-west", Report: benchReport})[5:]
	var last phi.PathKey
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeOp(MsgReportEnd, payload, &last); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeContext(b *testing.B) {
	ctx := phi.Context{U: 0.73, Q: 9 * sim.Millisecond, N: 17}
	var wbuf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wbuf = appendContext(wbuf, ctx)
		if _, err := decodeContext(wbuf[5:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerHandleLookup measures the server's whole in-process
// request path (decode + backend + encode) as serveConn drives it — one
// response buffer and one path memo across requests — uninstrumented.
func BenchmarkServerHandleLookup(b *testing.B) {
	backend := phi.NewServer(func() sim.Time { return sim.Time(time.Now().UnixNano()) }, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	req := appendOp(nil, trace.SpanContext{}, phi.Op{Kind: phi.OpLookup, Path: "bench-path"})[4:]
	var wbuf []byte
	var last phi.PathKey
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wbuf, _ = srv.handle(req, wbuf, &last)
		if wbuf[4] != MsgContext {
			b.Fatalf("resp type %x", wbuf[4])
		}
	}
}
