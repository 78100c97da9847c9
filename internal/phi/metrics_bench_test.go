package phi

// Benchmarks of the context server's bare hot path. What the observers
// (metrics, tracer, quality) add on top is one number per layer in the
// repository benchmark — BENCHMARK.json's observers.* metrics, the gap
// between its wire-hot-observed and wire-hot workloads — not a twin of
// each benchmark here.

import (
	"testing"

	"repro/internal/sim"
)

func benchServer() *Server {
	var now sim.Time
	return NewServer(func() sim.Time { now += sim.Millisecond; return now }, ServerConfig{})
}

func BenchmarkServerLookup(b *testing.B) {
	s := benchServer()
	s.RegisterPath("p", 1e9)
	if err := s.ReportStart("p"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup("p"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerReportCycle(b *testing.B) {
	s := benchServer()
	s.RegisterPath("p", 1e9)
	r := Report{Bytes: 1 << 16, Duration: 100 * sim.Millisecond, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReportStart("p"); err != nil {
			b.Fatal(err)
		}
		if err := s.ReportEnd("p", r); err != nil {
			b.Fatal(err)
		}
	}
}
