// Command phi-bench-diff compares two saturation results produced by
// phi-load -mode saturate (the committed BENCH_saturation.json against a
// fresh ramp) metric by metric and exits non-zero when the new file
// regresses past per-metric tolerances — the executable contract that
// turns the committed baseline into a CI gate instead of documentation.
//
// Throughput metrics (rates) regress when the new value falls more than
// -tol-rate below the old; latency metrics regress when the new value
// climbs more than -tol-latency above the old; per-op efficiency
// metrics (allocs/op, frames per write syscall) regress when they
// worsen past -tol-eff; context-quality metrics (knee coverage fresh
// fraction, paired-RTT p90 error) regress when they worsen past
// -tol-quality. Improvements are reported but never fail the run.
//
// Usage:
//
//	phi-bench-diff -old BENCH_saturation.json -new /tmp/sat.json \
//	    -tol-rate 0.25 -tol-latency 1.0 -require-knee -min-rate 2000
//
// Exit status: 0 all metrics within tolerance, 1 regression (or a
// -require-knee / -min-rate violation), 2 usage or file errors,
// including a document that is not a saturation result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		oldPath     = flag.String("old", "", "baseline saturation JSON (BENCH_saturation.json)")
		newPath     = flag.String("new", "", "candidate saturation JSON")
		tolRate     = flag.Float64("tol-rate", 0.10, "allowed fractional drop in throughput metrics (0.10 = -10%)")
		tolLatency  = flag.Float64("tol-latency", 0.25, "allowed fractional rise in latency metrics (0.25 = +25%)")
		tolEff      = flag.Float64("tol-eff", 0.25, "allowed fractional worsening in per-op efficiency metrics (allocs/op, frames/syscall)")
		tolQuality  = flag.Float64("tol-quality", 0.5, "allowed fractional worsening in context-quality metrics (coverage fresh fraction, RTT p90 error)")
		requireKnee = flag.Bool("require-knee", false, "fail unless the candidate found a knee")
		minRate     = flag.Float64("min-rate", 0, "fail if the candidate's max_sustainable_rate is below this floor (0 = off)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "phi-bench-diff: -old and -new are both required")
		os.Exit(2)
	}
	if *tolRate < 0 || *tolLatency < 0 || *tolEff < 0 || *tolQuality < 0 {
		fmt.Fprintln(os.Stderr, "phi-bench-diff: tolerances must be >= 0")
		os.Exit(2)
	}
	oldDoc, err := loadDoc(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phi-bench-diff:", err)
		os.Exit(2)
	}
	newDoc, err := loadDoc(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phi-bench-diff:", err)
		os.Exit(2)
	}

	rep, err := compare(oldDoc, newDoc, options{
		TolRate:     *tolRate,
		TolLatency:  *tolLatency,
		TolEff:      *tolEff,
		TolQuality:  *tolQuality,
		RequireKnee: *requireKnee,
		MinRate:     *minRate,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "phi-bench-diff:", err)
		os.Exit(2)
	}
	rep.write(os.Stdout, *oldPath, *newPath)
	if rep.failed() {
		os.Exit(1)
	}
}

func loadDoc(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}
