package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// probeHarness builds a two-node topology with a bounded link and a
// deterministic packet schedule: a burst that overflows the buffer (so
// drops and queue occupancy appear in the series), then a steady trickle.
func probeHarness(t testing.TB, probed bool, cfg ProbeConfig) (*Engine, *Probe, *LinkSeries) {
	t.Helper()
	eng := NewEngine()
	sink := NewNode(eng, 99, "sink")
	link := NewLink(eng, "l", 8_000_000, 10*Millisecond, 3000, sink)
	var probe *Probe
	var series *LinkSeries
	if probed {
		probe = NewProbe(eng, cfg)
		series = probe.WatchLink("l", link)
	} else {
		link.Monitor()
	}
	send := func(at Time, n int) {
		eng.At(at, func() {
			for i := 0; i < n; i++ {
				link.Send(&Packet{Size: 1000, Dst: 99})
			}
		})
	}
	send(5*Millisecond, 10) // burst: queue fills, some dropped
	for ms := 50; ms < 2000; ms += 25 {
		send(Time(ms)*Millisecond, 1)
	}
	return eng, probe, series
}

func TestProbeDeterministicSeries(t *testing.T) {
	run := func() ProbeDump {
		eng, probe, _ := probeHarness(t, true, ProbeConfig{Interval: 100 * Millisecond})
		eng.RunUntil(2 * Second)
		return probe.Dump()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs produced different dumps:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Links) != 1 {
		t.Fatalf("want 1 link series, got %d", len(a.Links))
	}
	s := a.Links[0]
	if len(s.Samples) != 20 {
		t.Fatalf("2s at 100ms cadence: want 20 samples, got %d", len(s.Samples))
	}
	// The burst lands in the first interval: utilization, queueing, and
	// loss must all register there.
	first := s.Samples[0]
	if first.At != 100*Millisecond {
		t.Errorf("first sample at %v, want 100ms", first.At)
	}
	if first.Utilization <= 0 || first.LossRate <= 0 || first.DroppedPackets == 0 {
		t.Errorf("burst interval should show utilization, loss, drops: %+v", first)
	}
	// Later trickle intervals: some utilization, no loss.
	last := s.Samples[len(s.Samples)-1]
	if last.LossRate != 0 || last.Utilization <= 0 {
		t.Errorf("trickle interval should show loss-free utilization: %+v", last)
	}
}

func TestProbeRingEvictionAtCap(t *testing.T) {
	eng, _, series := probeHarness(t, true, ProbeConfig{Interval: 100 * Millisecond, MaxSamples: 7})
	eng.RunUntil(2 * Second) // 20 ticks into a 7-slot ring
	got := series.Samples()
	if len(got) != 7 {
		t.Fatalf("ring cap 7: got %d samples", len(got))
	}
	if ev := series.Evicted(); ev != 13 {
		t.Fatalf("want 13 evicted, got %d", ev)
	}
	// Oldest retained sample is tick 14 of 20.
	if got[0].At != 1400*Millisecond {
		t.Errorf("oldest retained sample at %v, want 1.4s", got[0].At)
	}
	if got[6].At != 2*Second {
		t.Errorf("newest sample at %v, want 2s", got[6].At)
	}
	for i := 1; i < len(got); i++ {
		if got[i].At <= got[i-1].At {
			t.Fatalf("samples out of order after eviction: %v then %v", got[i-1].At, got[i].At)
		}
	}
}

func TestProbeStop(t *testing.T) {
	eng, probe, series := probeHarness(t, true, ProbeConfig{Interval: 100 * Millisecond})
	eng.At(500*Millisecond, probe.Stop)
	eng.RunUntil(2 * Second)
	// Ticks at 100..400ms fire; the 500ms tick is scheduled before Stop
	// runs in the same instant, so at most 5 samples survive.
	if n := len(series.Samples()); n > 5 {
		t.Fatalf("probe kept sampling after Stop: %d samples", n)
	}
}

// fakeFlow is a scripted FlowProbe.
type fakeFlow struct {
	id    FlowID
	cwnd  int64
	srtt  Time
	acked int64
}

func (f *fakeFlow) FlowProbeID() FlowID { return f.id }
func (f *fakeFlow) FlowProbeSample() FlowProbeSample {
	return FlowProbeSample{CwndBytes: f.cwnd, SRTT: f.srtt, BytesAcked: f.acked}
}

func TestProbeFlowSeriesDeltas(t *testing.T) {
	eng := NewEngine()
	probe := NewProbe(eng, ProbeConfig{Interval: 1 * Second})
	fl := &fakeFlow{id: 7, cwnd: 14480, srtt: 150 * Millisecond, acked: 1_000_000}
	series := probe.WatchFlow("f7", fl)
	// +125000 bytes per second = 1 Mbit/s.
	var grow func()
	grow = func() {
		fl.acked += 125_000
		eng.After(1*Second, grow)
	}
	eng.At(0, grow)
	eng.RunUntil(3 * Second)
	got := series.Samples()
	if len(got) != 3 {
		t.Fatalf("want 3 samples, got %d", len(got))
	}
	for i, s := range got {
		if s.ThroughputMbps != 1.0 {
			t.Errorf("sample %d throughput %v, want 1.0 Mbps", i, s.ThroughputMbps)
		}
		if s.CwndBytes != 14480 || s.SRTT != 150*Millisecond {
			t.Errorf("sample %d state %+v", i, s)
		}
	}
}

func TestProbeDumpJSONRoundTrip(t *testing.T) {
	eng, probe, _ := probeHarness(t, true, ProbeConfig{Interval: 100 * Millisecond})
	fl := &fakeFlow{id: 3, cwnd: 2896, srtt: 80 * Millisecond}
	probe.WatchFlow("flow-3", fl)
	eng.RunUntil(2 * Second)
	want := probe.Dump()

	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDumpJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("JSON round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestProbeDumpCSVRoundTrip(t *testing.T) {
	eng, probe, _ := probeHarness(t, true, ProbeConfig{Interval: 100 * Millisecond})
	fl := &fakeFlow{id: 3, cwnd: 2896, srtt: 80 * Millisecond}
	probe.WatchFlow("flow-3", fl)
	eng.RunUntil(2 * Second)
	want := probe.Dump()

	var buf bytes.Buffer
	if err := want.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDumpCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// CSV does not carry eviction counters; zero them on the reference.
	ref := want
	ref.Links = append([]LinkSeriesDump(nil), want.Links...)
	for i := range ref.Links {
		ref.Links[i].Evicted = 0
	}
	ref.Flows = append([]FlowSeriesDump(nil), want.Flows...)
	for i := range ref.Flows {
		ref.Flows[i].Evicted = 0
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("CSV round trip mismatch:\nwant %+v\ngot  %+v", ref, got)
	}
}

func TestReadDumpCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadDumpCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Fatal("want error for non-probe CSV")
	}
}

// BenchmarkProbeOverhead pins the cost of an attached probe against the
// identical unprobed simulation. The probe adds one event per interval —
// a fixed, workload-independent cost — so probed throughput must stay
// within 5% of unprobed (`go test -bench ProbeOverhead ./internal/sim`
// prints both arms; zero behavioral perturbation is pinned by
// internal/workload's TestScenarioProbePassive).
func BenchmarkProbeOverhead(b *testing.B) {
	for _, probed := range []bool{false, true} {
		name := "detached"
		if probed {
			name = "attached"
		}
		b.Run(name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				eng, _, _ := probeHarness(b, probed, ProbeConfig{Interval: 100 * Millisecond})
				eng.RunUntil(2 * Second)
				events += eng.Executed
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
