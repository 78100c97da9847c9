package main

import "fmt"

// The knee detector finds the saturation point of a rate→latency curve
// online, one ramp step at a time: the offered rate past which tail
// latency stops being flat-ish and starts climbing the hockey stick (or
// the server simply stops keeping up with the offered rate). It is a
// ratio test with hysteresis rather than anything fancier, because ramp
// steps are few (tens, not thousands) and each one is already a settled
// multi-second aggregate:
//
//   - The baseline p99 is the minimum p99 over all non-offending steps
//     so far — the flat part of the curve as measured, not an assumed
//     constant, so a curve that drifts downward as caches warm keeps a
//     honest baseline.
//   - A step is "offending" if its p99 exceeds Ratio × baseline
//     (latency knee) or its achieved rate falls below MinAchieved ×
//     offered (throughput saturation: the closed loop cannot push the
//     offered load through, so arrivals queue or drop).
//   - The knee is declared only after Confirm consecutive offending
//     steps (hysteresis: one noisy step — a GC pause, a scheduler
//     hiccup — resets nothing, it just has to be followed by another
//     offending step). A non-offending step resets the count and may
//     lower the baseline.
//
// The reported knee is the last non-offending step: the highest load
// level the server sustained with flat tails, i.e. the max sustainable
// rate. On a curve with no knee (monotone gentle ramp, noisy plateau)
// the detector never fires.
type kneeConfig struct {
	// Ratio is the p99 blowup over baseline that marks a step offending
	// (default 3: the tail tripled).
	Ratio float64
	// Confirm is how many consecutive offending steps declare the knee
	// (default 2).
	Confirm int
	// MinAchieved is the achieved/offered floor below which a step is
	// offending regardless of latency (default 0.9).
	MinAchieved float64
}

func (c kneeConfig) withDefaults() kneeConfig {
	if c.Ratio <= 1 {
		c.Ratio = 3
	}
	if c.Confirm < 1 {
		c.Confirm = 2
	}
	if c.MinAchieved <= 0 || c.MinAchieved > 1 {
		c.MinAchieved = 0.9
	}
	return c
}

// kneePoint is the detector's view of one completed ramp step.
type kneePoint struct {
	Offered  float64 // offered (scheduled) lifecycles/s
	Achieved float64 // completed lifecycles/s
	P99Us    float64 // coordinated-omission-corrected lifecycle p99

	// Efficiency attribution measured over the step (not judged by the
	// detector, but latched with the verdict so the knee's per-op cost
	// model rides along in the result).
	AllocsPerOp      float64 // client heap allocations per lifecycle
	FramesPerSyscall float64 // client frames written per write syscall

	// Context-quality attribution over the step (from the server's
	// /debug/context, when -debug-url is set): the fraction of this
	// step's lookups served fresh, and the cumulative paired-RTT p90
	// absolute error (µs) at step end.
	CoverageFreshFrac float64
	RTTAbsErrP90      float64
}

// kneeVerdict is the detector's latched conclusion.
type kneeVerdict struct {
	Found bool `json:"found"`
	// KneeStep indexes the last non-offending step: the max sustainable
	// operating point.
	KneeStep int `json:"knee_step"`
	// DetectedStep indexes the step whose completion confirmed the knee.
	DetectedStep int `json:"detected_step"`
	// Rate is the achieved rate at the knee step (lifecycles/s).
	Rate float64 `json:"rate"`
	// OfferedRate is the offered rate at the knee step.
	OfferedRate float64 `json:"offered_rate"`
	// P99Us is the lifecycle p99 at the knee step.
	P99Us float64 `json:"p99_us"`
	// BaselineP99Us is the flat-region baseline the ratio test compared
	// against.
	BaselineP99Us float64 `json:"baseline_p99_us"`
	// Reason names the test the confirming step failed:
	// "p99-ratio" or "achieved-shortfall".
	Reason string `json:"reason,omitempty"`
	// AllocsPerOp and FramesPerSyscall are the knee step's efficiency
	// attribution: heap allocations per lifecycle and the frames-per-
	// write-syscall batching ratio. phi-bench-diff gates both.
	AllocsPerOp      float64 `json:"allocs_per_op,omitempty"`
	FramesPerSyscall float64 `json:"frames_per_syscall,omitempty"`
	// CoverageFreshFrac and RTTAbsErrP90 are the knee step's context-
	// quality attribution (present only when the ramp ran with
	// -debug-url): the fraction of that step's lookups served from
	// fresh evidence, and the cumulative paired-RTT p90 absolute error
	// in µs. phi-bench-diff gates both.
	CoverageFreshFrac float64 `json:"coverage_fresh_frac,omitempty"`
	RTTAbsErrP90      float64 `json:"rtt_abs_err_p90,omitempty"`
}

// kneeDetector consumes ramp steps and latches once the knee is
// confirmed.
type kneeDetector struct {
	cfg       kneeConfig
	points    []kneePoint
	baseP99   float64 // min p99 over non-offending steps (0 = none yet)
	offending int     // consecutive offending steps
	lastGood  int     // index of the newest non-offending step
	reason    string  // reason of the first step in the offending run
	verdict   *kneeVerdict
}

func newKneeDetector(cfg kneeConfig) *kneeDetector {
	return &kneeDetector{cfg: cfg.withDefaults(), lastGood: -1}
}

// offends classifies one step against the current baseline, returning
// the failed test's name ("" = clean).
func (k *kneeDetector) offends(p kneePoint) string {
	if p.Achieved < k.cfg.MinAchieved*p.Offered {
		return "achieved-shortfall"
	}
	if k.baseP99 > 0 && p.P99Us > k.cfg.Ratio*k.baseP99 {
		return "p99-ratio"
	}
	return ""
}

// feed adds a completed step and reports whether the knee is now (or
// was already) confirmed. Once confirmed the detector latches: later
// feeds are recorded but change nothing.
func (k *kneeDetector) feed(p kneePoint) bool {
	k.points = append(k.points, p)
	if k.verdict != nil {
		return true
	}
	idx := len(k.points) - 1
	if why := k.offends(p); why != "" {
		if k.offending == 0 {
			k.reason = why
		}
		k.offending++
		if k.offending >= k.cfg.Confirm && k.lastGood >= 0 {
			good := k.points[k.lastGood]
			k.verdict = &kneeVerdict{
				Found:             true,
				KneeStep:          k.lastGood,
				DetectedStep:      idx,
				Rate:              good.Achieved,
				OfferedRate:       good.Offered,
				P99Us:             good.P99Us,
				BaselineP99Us:     k.baseP99,
				Reason:            k.reason,
				AllocsPerOp:       good.AllocsPerOp,
				FramesPerSyscall:  good.FramesPerSyscall,
				CoverageFreshFrac: good.CoverageFreshFrac,
				RTTAbsErrP90:      good.RTTAbsErrP90,
			}
			return true
		}
		return false
	}
	k.offending = 0
	k.reason = ""
	k.lastGood = idx
	if k.baseP99 == 0 || p.P99Us < k.baseP99 {
		k.baseP99 = p.P99Us
	}
	return false
}

// result returns the latched verdict, or a not-found verdict describing
// the state of the (knee-less) ramp.
func (k *kneeDetector) result() kneeVerdict {
	if k.verdict != nil {
		return *k.verdict
	}
	v := kneeVerdict{Found: false, KneeStep: k.lastGood, DetectedStep: -1, BaselineP99Us: k.baseP99}
	if k.lastGood >= 0 {
		good := k.points[k.lastGood]
		v.Rate = good.Achieved
		v.OfferedRate = good.Offered
		v.P99Us = good.P99Us
		v.AllocsPerOp = good.AllocsPerOp
		v.FramesPerSyscall = good.FramesPerSyscall
		v.CoverageFreshFrac = good.CoverageFreshFrac
		v.RTTAbsErrP90 = good.RTTAbsErrP90
	}
	return v
}

func (v kneeVerdict) String() string {
	if !v.Found {
		return "no knee found"
	}
	return fmt.Sprintf("knee at step %d: %.0f lifecycles/s sustained (offered %.0f), p99 %.0fus (baseline %.0fus), confirmed at step %d by %s",
		v.KneeStep, v.Rate, v.OfferedRate, v.P99Us, v.BaselineP99Us, v.DetectedStep, v.Reason)
}
