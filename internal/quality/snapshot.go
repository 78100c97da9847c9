package quality

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/telemetry"
)

// CoverageSnapshot is the lookup-outcome breakdown.
type CoverageSnapshot struct {
	Fresh    uint64 `json:"fresh"`
	Stale    uint64 `json:"stale"`
	Fallback uint64 `json:"fallback"`
	// FreshFrac is fresh / (fresh+stale+fallback), 0 when nothing has
	// been looked up.
	FreshFrac float64 `json:"fresh_frac"`
}

// HistStats summarizes one histogram in seconds.
type HistStats struct {
	Count uint64  `json:"count"`
	P50S  float64 `json:"p50_s"`
	P90S  float64 `json:"p90_s"`
	P99S  float64 `json:"p99_s"`
	MaxS  float64 `json:"max_s"`
}

func histStats(s *telemetry.HistSnapshot) HistStats {
	return HistStats{
		Count: s.Count,
		P50S:  float64(s.Quantile(0.50)) / 1e9,
		P90S:  float64(s.Quantile(0.90)) / 1e9,
		P99S:  float64(s.Quantile(0.99)) / 1e9,
		MaxS:  float64(s.Max()) / 1e9,
	}
}

// AccuracySnapshot is the paired prediction-error summary for one
// source (or the merged "overall" view). RTT quantities are
// microseconds; loss error is unitless.
type AccuracySnapshot struct {
	Pairs uint64 `json:"pairs"`
	// Absolute RTT error quantiles.
	RTTAbsErrP50Us float64 `json:"rtt_abs_err_p50_us"`
	RTTAbsErrP90Us float64 `json:"rtt_abs_err_p90_us"`
	RTTAbsErrP99Us float64 `json:"rtt_abs_err_p99_us"`
	// Signed residual (observed − predicted): mean, and the p90 of each
	// sign's magnitude. A large positive side means the context
	// under-predicts RTT.
	RTTResidMeanUs float64 `json:"rtt_resid_mean_us"`
	RTTResidPosP90 float64 `json:"rtt_resid_pos_p90_us"`
	RTTResidNegP90 float64 `json:"rtt_resid_neg_p90_us"`
	// Absolute loss-rate error quantiles (unitless).
	LossAbsErrP50 float64 `json:"loss_abs_err_p50"`
	LossAbsErrP90 float64 `json:"loss_abs_err_p90"`
}

func accuracyStats(pairs uint64, abs, pos, neg, loss *telemetry.HistSnapshot) AccuracySnapshot {
	a := AccuracySnapshot{
		Pairs:          pairs,
		RTTAbsErrP50Us: float64(abs.Quantile(0.50)) / 1e3,
		RTTAbsErrP90Us: float64(abs.Quantile(0.90)) / 1e3,
		RTTAbsErrP99Us: float64(abs.Quantile(0.99)) / 1e3,
		RTTResidPosP90: float64(pos.Quantile(0.90)) / 1e3,
		RTTResidNegP90: float64(neg.Quantile(0.90)) / 1e3,
		LossAbsErrP50:  float64(loss.Quantile(0.50)) / 1e6,
		LossAbsErrP90:  float64(loss.Quantile(0.90)) / 1e6,
	}
	if n := pos.Count + neg.Count; n > 0 {
		a.RTTResidMeanUs = float64(pos.Sum-neg.Sum) / float64(n) / 1e3
	}
	return a
}

// DriftSnapshot is the passive-vs-active RTT disagreement summary
// (microseconds; signed as passive − active).
type DriftSnapshot struct {
	Pairs       uint64  `json:"pairs"`
	AbsP50Us    float64 `json:"abs_p50_us"`
	AbsP90Us    float64 `json:"abs_p90_us"`
	SignedMeanU float64 `json:"signed_mean_us"`
}

// StalePath is one row of the top-K stalest-paths list. Ages are
// seconds; negative means that source never updated the path.
type StalePath struct {
	Path        string  `json:"path"`
	AgeActiveS  float64 `json:"age_active_s"`
	AgePassiveS float64 `json:"age_passive_s"`
}

// Snapshot is the full quality picture at one instant, served at
// /debug/context.
type Snapshot struct {
	Coverage  CoverageSnapshot            `json:"coverage"`
	Freshness map[string]HistStats        `json:"freshness"`
	Accuracy  map[string]AccuracySnapshot `json:"accuracy"`
	Drift     DriftSnapshot               `json:"drift"`
	// StalestPaths lists the TopK paths whose newest evidence (from
	// either source) is oldest, worst first.
	StalestPaths []StalePath `json:"stalest_paths"`
	// TrackedPaths is how many paths the registered sources enumerate.
	TrackedPaths int `json:"tracked_paths"`
	// PendingPredictions / DroppedPredictions describe the pairing table.
	PendingPredictions int64  `json:"pending_predictions"`
	DroppedPredictions uint64 `json:"dropped_predictions"`
}

// Snapshot captures the tracker's current state. Path sources are
// polled here (and only here). A nil tracker yields a zero snapshot.
func (t *Tracker) Snapshot() Snapshot {
	var snap Snapshot
	snap.Freshness = make(map[string]HistStats, numSources)
	snap.Accuracy = make(map[string]AccuracySnapshot, numSources+1)
	if t == nil {
		return snap
	}
	fresh, stale, fallback := t.CoverageCounts()
	snap.Coverage = CoverageSnapshot{Fresh: fresh, Stale: stale, Fallback: fallback}
	if total := fresh + stale + fallback; total > 0 {
		snap.Coverage.FreshFrac = float64(fresh) / float64(total)
	}

	absAll, posAll, negAll, lossAll := &telemetry.HistSnapshot{}, &telemetry.HistSnapshot{}, &telemetry.HistSnapshot{}, &telemetry.HistSnapshot{}
	var pairsAll uint64
	for src := Source(0); src < numSources; src++ {
		snap.Freshness[src.String()] = histStats(t.staleness[src].Snapshot())
		abs := t.rttAbsErr[src].Snapshot()
		pos := t.rttResidPos[src].Snapshot()
		neg := t.rttResidNeg[src].Snapshot()
		loss := t.lossAbsErr[src].Snapshot()
		pairs := t.pairs[src].Value()
		snap.Accuracy[src.String()] = accuracyStats(pairs, abs, pos, neg, loss)
		absAll.Merge(abs)
		posAll.Merge(pos)
		negAll.Merge(neg)
		lossAll.Merge(loss)
		pairsAll += pairs
	}
	snap.Accuracy["overall"] = accuracyStats(pairsAll, absAll, posAll, negAll, lossAll)

	dPos := t.driftPos.Snapshot()
	dNeg := t.driftNeg.Snapshot()
	snap.Drift = DriftSnapshot{Pairs: t.driftPairs.Value()}
	if n := dPos.Count + dNeg.Count; n > 0 {
		snap.Drift.SignedMeanU = float64(dPos.Sum-dNeg.Sum) / float64(n) / 1e3
		merged := (&telemetry.HistSnapshot{}).Merge(dPos).Merge(dNeg)
		snap.Drift.AbsP50Us = float64(merged.Quantile(0.50)) / 1e3
		snap.Drift.AbsP90Us = float64(merged.Quantile(0.90)) / 1e3
	}

	snap.StalestPaths, snap.TrackedPaths = t.stalest()
	snap.PendingPredictions = t.pendingCount.Load()
	snap.DroppedPredictions = t.dropped.Value()
	return snap
}

// stalest polls every path source and ranks paths by the age of their
// newest evidence from any source (paths with no evidence at all rank
// stalest), returning the worst TopK and the total path count. A path
// several sources enumerate — its home shard and, through report
// mirroring, its fallback — is one path, with the fresher age of each
// evidence source.
func (t *Tracker) stalest() ([]StalePath, int) {
	t.srcMu.Lock()
	sources := append([]func() []PathFreshness(nil), t.sources...)
	t.srcMu.Unlock()
	var all []PathFreshness
	seen := make(map[string]int) // path -> index in all
	for _, fn := range sources {
		for _, p := range fn() {
			i, dup := seen[p.Path]
			if !dup {
				seen[p.Path] = len(all)
				all = append(all, p)
				continue
			}
			all[i].AgeActiveNs = fresherAge(all[i].AgeActiveNs, p.AgeActiveNs)
			all[i].AgePassiveNs = fresherAge(all[i].AgePassiveNs, p.AgePassiveNs)
		}
	}
	if len(all) == 0 {
		return nil, 0
	}
	freshest := func(p PathFreshness) int64 {
		// The newest evidence is the fresher of the two ages.
		if age := fresherAge(p.AgeActiveNs, p.AgePassiveNs); age >= 0 {
			return age
		}
		return int64(^uint64(0) >> 1) // never updated: stalest possible
	}
	sort.Slice(all, func(i, j int) bool { return freshest(all[i]) > freshest(all[j]) })
	k := t.cfg.TopK
	if k > len(all) {
		k = len(all)
	}
	out := make([]StalePath, k)
	for i := 0; i < k; i++ {
		out[i] = StalePath{
			Path:        all[i].Path,
			AgeActiveS:  ageSeconds(all[i].AgeActiveNs),
			AgePassiveS: ageSeconds(all[i].AgePassiveNs),
		}
	}
	return out, len(all)
}

// fresherAge is the smaller of two evidence ages, where a negative age
// means never updated and so contributes nothing; negative when both
// are.
func fresherAge(a, b int64) int64 {
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}

func ageSeconds(ns int64) float64 {
	if ns < 0 {
		return -1
	}
	return float64(ns) / 1e9
}

// Handler serves the quality snapshot: JSON by default, an aligned
// text rendering with ?format=text — the same convention as
// /debug/health.
func (t *Tracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := t.Snapshot()
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeText(w, snap)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
}

func writeText(w io.Writer, s Snapshot) {
	c := s.Coverage
	fmt.Fprintf(w, "coverage: fresh=%d stale=%d fallback=%d fresh_frac=%.3f\n",
		c.Fresh, c.Stale, c.Fallback, c.FreshFrac)
	for _, src := range []string{"active", "passive"} {
		f := s.Freshness[src]
		fmt.Fprintf(w, "freshness[%s]: n=%d p50=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n",
			src, f.Count, f.P50S, f.P90S, f.P99S, f.MaxS)
	}
	for _, src := range []string{"active", "passive", "overall"} {
		a := s.Accuracy[src]
		fmt.Fprintf(w, "accuracy[%s]: pairs=%d rtt_abs_err p50=%.0fus p90=%.0fus p99=%.0fus resid_mean=%+.0fus loss_abs_err p90=%.6f\n",
			src, a.Pairs, a.RTTAbsErrP50Us, a.RTTAbsErrP90Us, a.RTTAbsErrP99Us, a.RTTResidMeanUs, a.LossAbsErrP90)
	}
	fmt.Fprintf(w, "drift(passive-active): pairs=%d abs_p50=%.0fus abs_p90=%.0fus signed_mean=%+.0fus\n",
		s.Drift.Pairs, s.Drift.AbsP50Us, s.Drift.AbsP90Us, s.Drift.SignedMeanU)
	fmt.Fprintf(w, "paths: tracked=%d pending_predictions=%d dropped=%d\n",
		s.TrackedPaths, s.PendingPredictions, s.DroppedPredictions)
	for _, p := range s.StalestPaths {
		fmt.Fprintf(w, "stale: %-24s age_active=%.3fs age_passive=%.3fs\n",
			p.Path, p.AgeActiveS, p.AgePassiveS)
	}
}
