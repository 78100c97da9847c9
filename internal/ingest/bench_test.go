package ingest

import (
	"testing"

	"repro/internal/ipfix"
	"repro/internal/ipfix/synth"
	"repro/internal/phi"
	"repro/internal/sim"
)

// benchMessages pre-encodes a synthetic stream so the benchmark measures
// the pipeline (decode + track + report), not the generator.
func benchMessages(b *testing.B, millis int) [][]byte {
	b.Helper()
	stream := synth.NewStream(synth.StreamConfig{
		Flows: 256, Paths: 16, LossRate: 0.01, Seed: 1,
	})
	enc := ipfix.NewEncoder(1)
	msgs, err := stream.Messages(enc, millis, 400)
	if err != nil {
		b.Fatal(err)
	}
	return msgs
}

// BenchmarkPipelineIngest drives pre-encoded IPFIX through the full
// synchronous pipeline into a real phi.Server and reports records/s and
// ns/record: the home of the single-core decode+track+report capacity
// (`go test -bench PipelineIngest ./internal/ingest`; ~5.1M records/s
// when last recorded). The shed behaviour past that rate is
// TestPipelineOverloadShedsAndCounts.
func BenchmarkPipelineIngest(b *testing.B) {
	msgs := benchMessages(b, 2000)
	var records int
	{
		dec := ipfix.NewDecoder()
		for _, m := range msgs {
			recs, _ := dec.Decode(m)
			records += len(recs)
		}
	}
	var now sim.Time
	server := phi.NewServer(func() sim.Time { return now }, phi.ServerConfig{})
	p, err := New(Config{Sink: server, Synchronous: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			p.Datagram("bench", m)
		}
	}
	b.StopTimer()
	recs := float64(records) * float64(b.N)
	b.ReportMetric(recs/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/record")
}

// BenchmarkTrackerObserve isolates the tracker hot path (no codec).
func BenchmarkTrackerObserve(b *testing.B) {
	stream := synth.NewStream(synth.StreamConfig{
		Flows: 256, Paths: 16, LossRate: 0.01, Seed: 1,
	})
	recs := stream.Next(2000)
	sink := nullSink{}
	cfg, err := Config{Sink: sink}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	tr := newTracker(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			tr.observe(&recs[j])
		}
		for tr.due() {
			tr.flush()
		}
	}
	b.StopTimer()
	n := float64(len(recs)) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "records/s")
}

type nullSink struct{}

func (nullSink) ReportStart(phi.PathKey) error           { return nil }
func (nullSink) ReportEnd(phi.PathKey, phi.Report) error { return nil }
func (nullSink) ReportProgress(phi.PathKey, phi.Report) error {
	return nil
}
