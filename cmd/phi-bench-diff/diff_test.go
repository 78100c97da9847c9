package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// doc parses a JSON literal into the generic document form main uses,
// so tests exercise exactly the float64/bool types real files decode to.
func doc(t *testing.T, s string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		t.Fatalf("bad test doc: %v", err)
	}
	return m
}

const satFixture = `{
	"tool": "phi-load",
	"max_sustainable_rate": 20000,
	"knee": {"found": true, "rate": 20000, "p99_us": 1500, "baseline_p99_us": 900,
		"allocs_per_op": 40, "frames_per_syscall": 0.5,
		"coverage_fresh_frac": 0.95, "rtt_abs_err_p90": 2500}
}`

// The two document shapes the gate used to accept and now rejects: a
// fixed-rate phi-load run and the retired in-process ingest benchmark.
const (
	loadShaped = `{"tool": "phi-load", "lifecycles_per_sec": 2002, "errors_total": 0,
		"ops": {"lookup": {"p99_us": 1900}}}`
	ingestShaped = `{"tool": "phi-load", "benchmark": "ingest",
		"sync": {"records_per_sec": 5100000, "ns_per_record": 195, "allocs_per_record": 0.03}}`
)

func defaults() options {
	return options{TolRate: 0.10, TolLatency: 0.25, TolEff: 0.25, TolQuality: 0.5}
}

func TestIdenticalDocsPass(t *testing.T) {
	rep, err := compare(doc(t, satFixture), doc(t, satFixture), defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		t.Fatalf("identical documents reported as regression: %+v", rep.Rows)
	}
}

func TestRateRegressionFails(t *testing.T) {
	cand := doc(t, satFixture)
	cand["max_sustainable_rate"] = 15000.0 // -25% against a 10% tolerance
	rep, err := compare(doc(t, satFixture), cand, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("25% throughput drop passed a 10% gate")
	}
}

func TestRateDropWithinTolerancePasses(t *testing.T) {
	cand := doc(t, satFixture)
	cand["max_sustainable_rate"] = 18500.0 // -7.5%
	rep, err := compare(doc(t, satFixture), cand, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		t.Fatal("7.5% drop failed a 10% gate")
	}
}

func TestLatencyRegressionFails(t *testing.T) {
	cand := doc(t, satFixture)
	cand["knee"].(map[string]any)["p99_us"] = 2400.0 // +60%
	rep, err := compare(doc(t, satFixture), cand, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("60% p99 rise passed a 25% gate")
	}
}

func TestImprovementNeverFails(t *testing.T) {
	cand := doc(t, satFixture)
	cand["max_sustainable_rate"] = 50000.0
	cand["knee"].(map[string]any)["p99_us"] = 100.0
	rep, err := compare(doc(t, satFixture), cand, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		t.Fatal("improvement reported as regression")
	}
}

func TestGrowthFromZeroFails(t *testing.T) {
	// A lower-is-better metric that was exactly zero at the baseline has
	// no fractional headroom: any growth regresses.
	old := doc(t, satFixture)
	old["knee"].(map[string]any)["rtt_abs_err_p90"] = 0.0
	rep, err := compare(old, doc(t, satFixture), defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("error appearing from zero passed the gate")
	}
}

func TestEfficiencyRegressionFails(t *testing.T) {
	// Injected efficiency regressions: allocs/op blowing up and the
	// frames-per-syscall batching ratio collapsing must each trip the
	// -tol-eff gate even when rate and latency are untouched.
	alloc := doc(t, satFixture)
	alloc["knee"].(map[string]any)["allocs_per_op"] = 400.0 // 10x
	rep, err := compare(doc(t, satFixture), alloc, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("10x allocs/op passed a 25% efficiency gate")
	}

	batch := doc(t, satFixture)
	batch["knee"].(map[string]any)["frames_per_syscall"] = 0.25 // halved
	rep, err = compare(doc(t, satFixture), batch, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("halved frames/syscall passed a 25% efficiency gate")
	}
}

func TestEfficiencyWithinTolerancePasses(t *testing.T) {
	cand := doc(t, satFixture)
	cand["knee"].(map[string]any)["allocs_per_op"] = 44.0      // +10%
	cand["knee"].(map[string]any)["frames_per_syscall"] = 0.45 // -10%
	rep, err := compare(doc(t, satFixture), cand, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed() {
		t.Fatalf("10%% efficiency drift failed a 25%% gate: %+v", rep.Rows)
	}
}

func TestEfficiencyUsesOwnTolerance(t *testing.T) {
	// A tight -tol-eff must bite without the latency tolerance moving:
	// the classes are independent knobs.
	opts := defaults()
	opts.TolEff = 0.01
	cand := doc(t, satFixture)
	cand["knee"].(map[string]any)["allocs_per_op"] = 44.0 // +10% vs 1% eff tol
	rep, err := compare(doc(t, satFixture), cand, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("10% allocs/op rise passed a 1% -tol-eff gate")
	}
	for _, r := range rep.Rows {
		if r.Name == "knee.p99_us" && r.Regressed {
			t.Fatal("latency metric judged by the efficiency tolerance")
		}
	}
}

func TestQualityRegressionFails(t *testing.T) {
	// Injected context-quality regressions: coverage collapsing to zero
	// (the classic wiring break — quality hooks disconnected) and the
	// paired-RTT error blowing up must each trip the -tol-quality gate
	// even with rate, latency, and efficiency untouched.
	cov := doc(t, satFixture)
	cov["knee"].(map[string]any)["coverage_fresh_frac"] = 0.0
	rep, err := compare(doc(t, satFixture), cov, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("zeroed coverage fresh fraction passed a 50% quality gate")
	}

	acc := doc(t, satFixture)
	acc["knee"].(map[string]any)["rtt_abs_err_p90"] = 25000.0 // 10x
	rep, err = compare(doc(t, satFixture), acc, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("10x RTT p90 error passed a 50% quality gate")
	}
}

func TestQualityUsesOwnToleranceAndSkipsWhenAbsent(t *testing.T) {
	// The class is an independent knob: a tight -tol-quality must bite
	// without the efficiency tolerance moving.
	opts := defaults()
	opts.TolQuality = 0.01
	cand := doc(t, satFixture)
	cand["knee"].(map[string]any)["coverage_fresh_frac"] = 0.85 // -10.5% vs 1% tol
	rep, err := compare(doc(t, satFixture), cand, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("10% coverage drop passed a 1% -tol-quality gate")
	}
	for _, r := range rep.Rows {
		if r.Name == "knee.allocs_per_op" && r.Regressed {
			t.Fatal("efficiency metric judged by the quality tolerance")
		}
	}

	// Pre-quality baselines (no coverage fields) keep gating everything
	// else: the quality rows are skipped, not failed.
	old := doc(t, satFixture)
	delete(old["knee"].(map[string]any), "coverage_fresh_frac")
	delete(old["knee"].(map[string]any), "rtt_abs_err_p90")
	rep, err = compare(old, doc(t, satFixture), defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Name == "knee.coverage_fresh_frac" || r.Name == "knee.rtt_abs_err_p90" {
			t.Fatalf("gated a quality metric absent from the baseline: %s", r.Name)
		}
	}
	if rep.failed() {
		t.Fatal("absent quality metrics caused a failure")
	}
}

func TestRequireKnee(t *testing.T) {
	opts := defaults()
	opts.RequireKnee = true
	cand := doc(t, satFixture)
	cand["knee"].(map[string]any)["found"] = false
	rep, err := compare(doc(t, satFixture), cand, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() || len(rep.Violations) == 0 {
		t.Fatal("-require-knee did not fail a knee-less candidate")
	}
}

func TestMinRateFloor(t *testing.T) {
	opts := defaults()
	opts.MinRate = 25000
	rep, err := compare(doc(t, satFixture), doc(t, satFixture), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.failed() {
		t.Fatal("candidate below the -min-rate floor passed")
	}
}

func TestNonSaturationDocumentIsRejected(t *testing.T) {
	// Saturation is the one kind the gate reads: anything else, on either
	// side, is a usage error (exit 2 in main), never a comparison.
	for _, other := range []string{loadShaped, ingestShaped, `{"what": 1}`} {
		if _, err := compare(doc(t, satFixture), doc(t, other), defaults()); err == nil {
			t.Errorf("candidate %s was compared", other)
		}
		if _, err := compare(doc(t, other), doc(t, other), defaults()); err == nil {
			t.Errorf("baseline %s was compared", other)
		}
	}
}

func TestReportWriteSmoke(t *testing.T) {
	cand := doc(t, satFixture)
	cand["max_sustainable_rate"] = 10000.0
	rep, err := compare(doc(t, satFixture), cand, defaults())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.write(&b, "old.json", "new.json")
	out := b.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "verdict: FAIL") {
		t.Fatalf("report text missing regression verdict:\n%s", out)
	}
}
