package workload

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/tcp"
)

func probedScenario(interval sim.Time) Scenario {
	return Scenario{
		Dumbbell:      sim.DefaultDumbbell(3),
		LongRunning:   true,
		Duration:      20 * sim.Second,
		Warmup:        2 * sim.Second,
		Seed:          42,
		CC:            func(int) func() tcp.CongestionControl { return cubicFactory() },
		ProbeInterval: interval,
	}
}

func TestScenarioProbeSeries(t *testing.T) {
	res := Run(probedScenario(100 * sim.Millisecond))
	if res.Probe == nil {
		t.Fatal("ProbeInterval set but Result.Probe is nil")
	}
	d := res.Probe.Dump()
	if len(d.Links) != 1 || d.Links[0].Name != "bottleneck" {
		t.Fatalf("want one bottleneck link series, got %+v", d.Links)
	}
	if len(d.Flows) != 3 {
		t.Fatalf("long-running scenario with 3 senders: want 3 flow series, got %d", len(d.Flows))
	}
	bn := d.Links[0]
	if len(bn.Samples) != 200 {
		t.Fatalf("20s at 100ms: want 200 samples, got %d", len(bn.Samples))
	}
	// Persistent Cubic flows saturate the bottleneck: late-run sampled
	// utilization should be high and cwnd/RTT series non-trivial.
	if u := bn.UtilizationQuantile(0.5); u < 0.5 {
		t.Errorf("median sampled utilization %v, want >= 0.5 under saturation", u)
	}
	late := d.Flows[0].Samples[len(d.Flows[0].Samples)-1]
	if late.CwndBytes <= 0 || late.SRTT <= 0 {
		t.Errorf("flow sample missing congestion state: %+v", late)
	}
}

func TestScenarioProbeDeterministic(t *testing.T) {
	a := Run(probedScenario(100 * sim.Millisecond))
	b := Run(probedScenario(100 * sim.Millisecond))
	if !reflect.DeepEqual(a.Probe.Dump(), b.Probe.Dump()) {
		t.Fatal("same seed produced different probe series")
	}
}

// TestScenarioProbePassive pins that attaching a probe does not perturb
// the simulation: the measured results of a probed run are identical to
// the unprobed run — the probe only reads monitor counters and adds its
// own events, which never touch packets. (The <5% wall-clock overhead
// claim is measured separately by sim.BenchmarkProbeOverhead.)
func TestScenarioProbePassive(t *testing.T) {
	probed := Run(probedScenario(100 * sim.Millisecond))
	probed.Probe = nil
	bare := Run(probedScenario(0))
	if !reflect.DeepEqual(probed, bare) {
		t.Fatalf("probe perturbed the run:\nprobed %+v\nbare   %+v", probed, bare)
	}
}
