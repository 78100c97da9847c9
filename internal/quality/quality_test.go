package quality

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.ObserveLookup("p", OutcomeFresh, 1, 1, 1, 0, true)
	tr.ObserveReport("p", SourceActive, 1, 0)
	tr.ObserveFallback("p")
	tr.ForgetPath("p")
	tr.AddPathSource(func() []PathFreshness { return nil })
	if f, s, fb := tr.CoverageCounts(); f+s+fb != 0 {
		t.Fatalf("nil tracker counted something: %d %d %d", f, s, fb)
	}
	if deg, _, _, _ := tr.HealthCheck(); deg {
		t.Fatal("nil tracker degraded")
	}
	snap := tr.Snapshot()
	if snap.Coverage.Fresh != 0 || snap.TrackedPaths != 0 {
		t.Fatalf("nil tracker snapshot not empty: %+v", snap)
	}
}

func TestCoverageClassification(t *testing.T) {
	tr := New(Config{})
	tr.ObserveLookup("a", OutcomeFresh, 1000, -1, 0, 0, false)
	tr.ObserveLookup("a", OutcomeFresh, 2000, -1, 0, 0, false)
	tr.ObserveLookup("b", OutcomeStale, 9e9, -1, 0, 0, false)
	tr.ObserveLookup("c", OutcomeFallback, -1, -1, 0, 0, false)
	tr.ObserveFallback("d")
	f, s, fb := tr.CoverageCounts()
	if f != 2 || s != 1 || fb != 2 {
		t.Fatalf("coverage = %d/%d/%d, want 2/1/2", f, s, fb)
	}
	snap := tr.Snapshot()
	if got, want := snap.Coverage.FreshFrac, 2.0/5.0; got != want {
		t.Fatalf("fresh_frac = %v, want %v", got, want)
	}
	// Staleness ages recorded only for sources with evidence (age >= 0).
	if n := snap.Freshness["active"].Count; n != 3 {
		t.Fatalf("active staleness samples = %d, want 3", n)
	}
	if n := snap.Freshness["passive"].Count; n != 0 {
		t.Fatalf("passive staleness samples = %d, want 0", n)
	}
}

func TestAccuracyPairingConsumesPrediction(t *testing.T) {
	tr := New(Config{})
	// Prediction: 40ms RTT, 1% loss. Next report observes 50ms, 3%.
	tr.ObserveLookup("p", OutcomeFresh, 0, -1, 40e6, 0.01, true)
	tr.ObserveReport("p", SourceActive, 50e6, 0.03)
	// A second report without a fresh lookup must not pair again.
	tr.ObserveReport("p", SourceActive, 70e6, 0.05)
	snap := tr.Snapshot()
	a := snap.Accuracy["active"]
	if a.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1 (prediction must be consumed)", a.Pairs)
	}
	// |50-40|ms = 10ms = 10000us; histogram error is ~3%.
	if a.RTTAbsErrP90Us < 10000*0.97 || a.RTTAbsErrP90Us > 10000*1.05 {
		t.Fatalf("rtt_abs_err_p90 = %vus, want ~10000us", a.RTTAbsErrP90Us)
	}
	if a.RTTResidMeanUs <= 0 {
		t.Fatalf("resid mean = %v, want positive (under-prediction)", a.RTTResidMeanUs)
	}
	if a.LossAbsErrP90 < 0.019 || a.LossAbsErrP90 > 0.021 {
		t.Fatalf("loss_abs_err_p90 = %v, want ~0.02", a.LossAbsErrP90)
	}
	if ov := snap.Accuracy["overall"]; ov.Pairs != 1 {
		t.Fatalf("overall pairs = %d, want 1", ov.Pairs)
	}
}

func TestSignedResidualSplit(t *testing.T) {
	tr := New(Config{})
	// Over-prediction: predicted 100ms, observed 60ms → negative residual.
	tr.ObserveLookup("p", OutcomeFresh, 0, -1, 100e6, 0, true)
	tr.ObserveReport("p", SourceActive, 60e6, 0)
	a := tr.Snapshot().Accuracy["active"]
	if a.RTTResidMeanUs >= 0 {
		t.Fatalf("resid mean = %v, want negative (over-prediction)", a.RTTResidMeanUs)
	}
	if a.RTTResidNegP90 < 40000*0.97 {
		t.Fatalf("neg resid p90 = %v, want ~40000us", a.RTTResidNegP90)
	}
	if a.RTTResidPosP90 != 0 {
		t.Fatalf("pos resid p90 = %v, want 0", a.RTTResidPosP90)
	}
}

func TestDriftSignIsPassiveMinusActive(t *testing.T) {
	tr := New(Config{})
	tr.ObserveReport("p", SourceActive, 40e6, 0)
	tr.ObserveReport("p", SourcePassive, 45e6, 0) // passive sees +5ms
	tr.ObserveReport("q", SourcePassive, 40e6, 0)
	tr.ObserveReport("q", SourceActive, 50e6, 0) // passive saw -10ms
	d := tr.Snapshot().Drift
	if d.Pairs != 2 {
		t.Fatalf("drift pairs = %d, want 2", d.Pairs)
	}
	// Mean of +5ms and -10ms = -2.5ms = -2500us.
	if d.SignedMeanU > -2000 || d.SignedMeanU < -3000 {
		t.Fatalf("drift signed mean = %vus, want ~-2500us", d.SignedMeanU)
	}
	if d.AbsP90Us < 9000 {
		t.Fatalf("drift abs p90 = %vus, want ~10000us", d.AbsP90Us)
	}
}

func TestPendingTableBoundAndForget(t *testing.T) {
	tr := New(Config{MaxPending: 2})
	tr.ObserveLookup("a", OutcomeFresh, 0, -1, 1e6, 0, true)
	tr.ObserveLookup("b", OutcomeFresh, 0, -1, 1e6, 0, true)
	tr.ObserveLookup("c", OutcomeFresh, 0, -1, 1e6, 0, true) // over cap: dropped
	snap := tr.Snapshot()
	if snap.PendingPredictions != 2 {
		t.Fatalf("pending = %d, want 2", snap.PendingPredictions)
	}
	if snap.DroppedPredictions != 1 {
		t.Fatalf("dropped = %d, want 1", snap.DroppedPredictions)
	}
	tr.ForgetPath("a")
	if got := tr.Snapshot().PendingPredictions; got != 1 {
		t.Fatalf("pending after forget = %d, want 1", got)
	}
	// Freed slot admits a new path again.
	tr.ObserveLookup("d", OutcomeFresh, 0, -1, 1e6, 0, true)
	if got := tr.Snapshot().PendingPredictions; got != 2 {
		t.Fatalf("pending after refill = %d, want 2", got)
	}
}

func TestHealthCheckWindows(t *testing.T) {
	tr := New(Config{MinSamples: 10, MinFreshFrac: 0.5})
	// Window 1: too few samples to judge.
	for i := 0; i < 5; i++ {
		tr.ObserveFallback("p")
	}
	if deg, _, _, _ := tr.HealthCheck(); deg {
		t.Fatal("degraded below MinSamples")
	}
	// Window 2: all fresh — healthy.
	for i := 0; i < 20; i++ {
		tr.ObserveLookup("p", OutcomeFresh, 0, -1, 0, 0, false)
	}
	if deg, _, _, obs := tr.HealthCheck(); deg || obs != 1 {
		t.Fatalf("healthy window judged degraded (deg=%v obs=%v)", deg, obs)
	}
	// Window 3: all fallback — degraded, and only this window counts.
	for i := 0; i < 20; i++ {
		tr.ObserveFallback("p")
	}
	deg, reason, base, obs := tr.HealthCheck()
	if !deg || reason != "coverage-drop" {
		t.Fatalf("want coverage-drop, got deg=%v reason=%q", deg, reason)
	}
	if base != 0.5 || obs != 0 {
		t.Fatalf("baseline/observed = %v/%v, want 0.5/0", base, obs)
	}
}

func TestStalestRanking(t *testing.T) {
	tr := New(Config{TopK: 2})
	tr.AddPathSource(func() []PathFreshness {
		return []PathFreshness{
			{Path: "fresh", AgeActiveNs: 1e9, AgePassiveNs: -1},
			{Path: "never", AgeActiveNs: -1, AgePassiveNs: -1},
			{Path: "old", AgeActiveNs: 90e9, AgePassiveNs: 100e9},
		}
	})
	snap := tr.Snapshot()
	if snap.TrackedPaths != 3 {
		t.Fatalf("tracked = %d, want 3", snap.TrackedPaths)
	}
	if len(snap.StalestPaths) != 2 {
		t.Fatalf("stalest = %d entries, want 2", len(snap.StalestPaths))
	}
	if snap.StalestPaths[0].Path != "never" || snap.StalestPaths[1].Path != "old" {
		t.Fatalf("stalest order = %q,%q, want never,old",
			snap.StalestPaths[0].Path, snap.StalestPaths[1].Path)
	}
	// "old"'s freshest evidence is active at 90s.
	if snap.StalestPaths[1].AgeActiveS != 90 {
		t.Fatalf("old age_active = %v, want 90", snap.StalestPaths[1].AgeActiveS)
	}
}

// A path that lives on its home shard and (via report mirroring) its
// fallback is enumerated by two sources; it is still one path, with the
// fresher evidence of each source.
func TestStalestDeduplicatesAcrossSources(t *testing.T) {
	tr := New(Config{})
	tr.AddPathSource(func() []PathFreshness {
		return []PathFreshness{
			{Path: "mirrored", AgeActiveNs: 30e9, AgePassiveNs: -1},
			{Path: "home-only", AgeActiveNs: 5e9, AgePassiveNs: -1},
		}
	})
	tr.AddPathSource(func() []PathFreshness {
		return []PathFreshness{{Path: "mirrored", AgeActiveNs: 10e9, AgePassiveNs: 70e9}}
	})
	snap := tr.Snapshot()
	if snap.TrackedPaths != 2 {
		t.Errorf("tracked = %d, want 2 (one path on two shards is one path)", snap.TrackedPaths)
	}
	want := []StalePath{
		{Path: "mirrored", AgeActiveS: 10, AgePassiveS: 70},
		{Path: "home-only", AgeActiveS: 5, AgePassiveS: -1},
	}
	if len(snap.StalestPaths) != len(want) {
		t.Fatalf("stalest = %+v, want %+v", snap.StalestPaths, want)
	}
	for i, w := range want {
		if snap.StalestPaths[i] != w {
			t.Errorf("stalest[%d] = %+v, want %+v", i, snap.StalestPaths[i], w)
		}
	}
}

func TestHandlerJSONAndText(t *testing.T) {
	tr := New(Config{})
	tr.ObserveLookup("p", OutcomeFresh, 5e8, -1, 40e6, 0, true)
	tr.ObserveReport("p", SourceActive, 45e6, 0)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/context", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Coverage.Fresh != 1 || snap.Accuracy["overall"].Pairs != 1 {
		t.Fatalf("snapshot content wrong: %+v", snap)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/context?format=text", nil))
	body := rec.Body.String()
	for _, want := range []string{"coverage:", "freshness[active]", "accuracy[overall]", "drift(passive-active)"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsRegistration(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Registry: reg})
	tr.ObserveLookup("p", OutcomeFresh, 1e6, -1, 40e6, 0, true)
	tr.ObserveReport("p", SourceActive, 45e6, 0)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"phi_context_lookup_fresh_total 1",
		`phi_context_staleness_seconds_count{source="active"} 1`,
		`phi_context_pairs_total{source="active"} 1`,
		`phi_context_rtt_abs_error_seconds_count{source="active"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkObserveLookupNil pins the disabled-path overhead: a nil
// tracker must cost a branch, nothing more.
func BenchmarkObserveLookupNil(b *testing.B) {
	var tr *Tracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.ObserveLookup("p", OutcomeFresh, 1000, -1, 1e6, 0, true)
	}
}

func BenchmarkObserveLookupAttached(b *testing.B) {
	tr := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.ObserveLookup("p", OutcomeFresh, 1000, -1, 1e6, 0, true)
	}
}

func BenchmarkObserveReportAttached(b *testing.B) {
	tr := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.ObserveLookup("p", OutcomeFresh, 1000, -1, 1e6, 0, true)
		tr.ObserveReport("p", SourceActive, 2e6, 0)
	}
}
