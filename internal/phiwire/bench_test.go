package phiwire

// Microbenchmarks for the wire codec hot path (every request crosses
// encode/decode twice) and for a full in-process handle() round trip.

import (
	"testing"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
)

var benchReport = phi.Report{
	Bytes:    1 << 20,
	Duration: 1200 * sim.Millisecond,
	AvgRTT:   40 * sim.Millisecond,
	MinRTT:   31 * sim.Millisecond,
	LossRate: 0.002,
}

func BenchmarkEncodeLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeLookup("us-east/eu-west"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeReportEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeReport(MsgReportEnd, "us-east/eu-west", benchReport); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeReportEnd(b *testing.B) {
	payload, err := encodeReport(MsgReportEnd, "us-east/eu-west", benchReport)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeReportEnd(payload[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeContext(b *testing.B) {
	ctx := phi.Context{U: 0.73, Q: 9 * sim.Millisecond, N: 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload := encodeContext(ctx)
		if _, err := decodeContext(payload[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerHandleLookup measures the server's whole in-process
// request path (decode + backend + encode), uninstrumented.
func BenchmarkServerHandleLookup(b *testing.B) {
	backend := phi.NewServer(func() sim.Time { return sim.Time(time.Now().UnixNano()) }, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	req, err := encodeLookup("bench-path")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := srv.handle(req)
		if resp[0] != MsgContext {
			b.Fatalf("resp type %x", resp[0])
		}
	}
}
