package main

import (
	"fmt"
	"io"
)

// direction says which way a metric is allowed to move.
type direction int

const (
	higherBetter direction = iota // throughput: regression = drop
	lowerBetter                   // latency/errors: regression = rise
)

// toleranceClass buckets metrics by how noisy they are, so one flag per
// bucket: throughput rates, latency quantiles, per-op efficiency
// (allocs/op, frames/syscall — near-deterministic, so their tolerance
// can be much tighter than latency's), and context quality (coverage
// fraction and prediction error at the knee).
type toleranceClass int

const (
	rateClass toleranceClass = iota
	latencyClass
	effClass
	qualityClass
)

// options are the gate's tolerances and extra requirements.
type options struct {
	TolRate     float64 // allowed fractional drop for rate-class metrics
	TolLatency  float64 // allowed fractional rise for latency-class metrics
	TolEff      float64 // allowed fractional worsening for efficiency-class metrics
	TolQuality  float64 // allowed fractional worsening for context-quality metrics
	RequireKnee bool
	MinRate     float64
}

// tol picks the class's tolerance.
func (o options) tol(c toleranceClass) float64 {
	switch c {
	case rateClass:
		return o.TolRate
	case effClass:
		return o.TolEff
	case qualityClass:
		return o.TolQuality
	default:
		return o.TolLatency
	}
}

// row is one compared metric.
type row struct {
	Name      string
	Old, New  float64
	Better    direction
	Tol       float64
	Regressed bool
}

// delta is the signed fractional change, new relative to old.
func (r row) delta() float64 {
	if r.Old == 0 {
		if r.New == 0 {
			return 0
		}
		return 1 // any growth from zero reads as +100%
	}
	return (r.New - r.Old) / r.Old
}

// report is the full comparison outcome.
type report struct {
	Rows       []row
	Violations []string // -require-knee / -min-rate failures
}

func (r *report) failed() bool {
	if len(r.Violations) > 0 {
		return true
	}
	for _, m := range r.Rows {
		if m.Regressed {
			return true
		}
	}
	return false
}

func (r *report) write(w io.Writer, oldPath, newPath string) {
	fmt.Fprintf(w, "phi-bench-diff: saturation result, %s -> %s\n\n", oldPath, newPath)
	fmt.Fprintf(w, "%-36s %14s %14s %8s  %s\n", "metric", "old", "new", "delta", "verdict")
	for _, m := range r.Rows {
		verdict := "ok"
		switch {
		case m.Regressed:
			verdict = fmt.Sprintf("REGRESSED (tol %+.0f%%)", tolSign(m)*m.Tol*100)
		case m.Better == higherBetter && m.delta() > 0,
			m.Better == lowerBetter && m.delta() < 0:
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-36s %14.1f %14.1f %+7.1f%%  %s\n", m.Name, m.Old, m.New, m.delta()*100, verdict)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "\nVIOLATION: %s\n", v)
	}
	if r.failed() {
		fmt.Fprintln(w, "\nverdict: FAIL")
	} else {
		fmt.Fprintln(w, "\nverdict: pass")
	}
}

func tolSign(m row) float64 {
	if m.Better == higherBetter {
		return -1
	}
	return 1
}

// compare checks that both documents are phi-load saturation results
// (the one kind anything feeds this gate), extracts the comparable metric
// set, and applies the tolerances.
func compare(oldDoc, newDoc map[string]any, opts options) (*report, error) {
	if !isSaturation(oldDoc) || !isSaturation(newDoc) {
		return nil, fmt.Errorf("not a saturation result (want the JSON phi-load -mode saturate writes, on both sides)")
	}
	rep := &report{}
	for _, spec := range metrics {
		ov, okOld := num(oldDoc, spec.path...)
		nv, okNew := num(newDoc, spec.path...)
		if !okOld || !okNew {
			continue // metric absent on one side: nothing to gate
		}
		tol := opts.tol(spec.class)
		rep.Rows = append(rep.Rows, row{
			Name:      spec.name,
			Old:       ov,
			New:       nv,
			Better:    spec.better,
			Tol:       tol,
			Regressed: regressed(ov, nv, spec.better, tol),
		})
	}
	if len(rep.Rows) == 0 {
		return nil, fmt.Errorf("no comparable metrics found in the two saturation results")
	}
	if opts.RequireKnee {
		if found, ok := boolAt(newDoc, "knee", "found"); !ok || !found {
			rep.Violations = append(rep.Violations, "candidate found no saturation knee (-require-knee)")
		}
	}
	if opts.MinRate > 0 {
		if nv, ok := num(newDoc, "max_sustainable_rate"); ok && nv < opts.MinRate {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("candidate max_sustainable_rate %.1f is below the -min-rate floor %.1f", nv, opts.MinRate))
		}
	}
	return rep, nil
}

// regressed applies the tolerance in the metric's bad direction.
func regressed(old, new float64, better direction, tol float64) bool {
	if better == higherBetter {
		return new < old*(1-tol)
	}
	return new > old*(1+tol)
}

// isSaturation recognizes a saturation result by its knee verdict.
func isSaturation(doc map[string]any) bool {
	_, ok := doc["knee"]
	return ok
}

// metricSpec is one gated metric: a JSON path, its good direction, and
// the tolerance class whose flag bounds its bad-direction movement.
type metricSpec struct {
	name   string
	path   []string
	better direction
	class  toleranceClass
}

// metrics lists what gets gated. Paths that are absent on either side
// are skipped, so older baselines keep working as results grow fields.
var metrics = []metricSpec{
	{"max_sustainable_rate", []string{"max_sustainable_rate"}, higherBetter, rateClass},
	{"knee.p99_us", []string{"knee", "p99_us"}, lowerBetter, latencyClass},
	{"knee.baseline_p99_us", []string{"knee", "baseline_p99_us"}, lowerBetter, latencyClass},
	// Efficiency attribution at the knee: heap allocations per
	// lifecycle may not rise, and the frames-per-write-syscall
	// batching ratio may not fall, past -tol-eff. Both are
	// near-deterministic per build, so the class default is tight.
	{"knee.allocs_per_op", []string{"knee", "allocs_per_op"}, lowerBetter, effClass},
	{"knee.frames_per_syscall", []string{"knee", "frames_per_syscall"}, higherBetter, effClass},
	// Context quality at the knee (present when the ramp ran with
	// -debug-url): the fraction of knee-step lookups served from
	// fresh evidence may not fall, and the paired-RTT p90 absolute
	// error may not rise, past -tol-quality. Absent on either side
	// (pre-quality baselines, ramps run without the endpoint) they
	// are skipped like any other missing metric.
	{"knee.coverage_fresh_frac", []string{"knee", "coverage_fresh_frac"}, higherBetter, qualityClass},
	{"knee.rtt_abs_err_p90", []string{"knee", "rtt_abs_err_p90"}, lowerBetter, qualityClass},
}

// num walks a path of object keys and returns the float at the end.
func num(doc map[string]any, path ...string) (float64, bool) {
	cur := any(doc)
	for _, key := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur, ok = m[key]
		if !ok {
			return 0, false
		}
	}
	f, ok := cur.(float64)
	return f, ok
}

// boolAt walks a path of object keys and returns the bool at the end.
func boolAt(doc map[string]any, path ...string) (bool, bool) {
	cur := any(doc)
	for _, key := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return false, false
		}
		cur, ok = m[key]
		if !ok {
			return false, false
		}
	}
	b, ok := cur.(bool)
	return b, ok
}
