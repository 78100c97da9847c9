package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/trace"
	tlog "repro/internal/trace/log"
)

// Saturate mode answers the question the single-rate open loop cannot:
// where is the ceiling? It ramps the offered Poisson rate geometrically,
// one settled multi-second step at a time, feeds each step's
// coordinated-omission-corrected lifecycle p99 to the online knee
// detector (knee.go), and stops once the knee is confirmed — then holds
// the load at the knee rate while capturing CPU and heap profiles from
// the server, so the evidence of *why* the ceiling is where it is lands
// next to the measurement of where it is.
//
// The load plumbing is the open loop's (fixed connection pool, bounded
// in-flight workers, counted drops) with two differences: the target
// rate is a shared atomic the driver retunes between steps, and the
// arrival pacer batches — it only parks on a timer when the schedule is
// more than pacerSlack ahead, because at the rates the ramp reaches a
// timer per arrival would melt before the server does.

// pacerSlack is how far ahead of schedule the arrival generator must be
// before it parks on a timer; closer than this it just spins the loop,
// amortizing timer cost over many arrivals.
const pacerSlack = 500 * time.Microsecond

// satParams is the ramp schedule and knee policy, echoed into the
// result for reproducibility.
type satParams struct {
	StartRate       float64 `json:"start_rate"`
	MaxRate         float64 `json:"max_rate"`
	StepFactor      float64 `json:"step_factor"`
	StepS           float64 `json:"step_s"`
	SettleS         float64 `json:"settle_s"`
	KneeRatio       float64 `json:"knee_ratio"`
	KneeConfirm     int     `json:"knee_confirm"`
	KneeMinAchieved float64 `json:"knee_min_achieved"`
	ProfileS        float64 `json:"profile_s,omitempty"`
	// The four scrape URLs below are not knobs: resolveDebug derives them
	// from the target's /debug/ index (-debug-url), and the echo records
	// what was scraped. PprofURL is the debug base itself, set when the
	// index lists the pprof endpoints and -profile-dur is nonzero.
	PprofURL  string `json:"pprof_url,omitempty"`
	StagesURL string `json:"stages_url,omitempty"`
	// ResourcesURL, when set, is the server's /debug/resources endpoint;
	// its snapshot is embedded in the result (server-side runtime + wire
	// attribution next to the client-side measurement).
	ResourcesURL string `json:"resources_url,omitempty"`
	// ContextURL, when set, is the server's /debug/context endpoint. It
	// is polled at each ramp step's measurement boundaries so the step
	// (and the knee verdict latched from it) carries context-quality
	// attribution: coverage fresh fraction over the step's lookups and
	// the cumulative paired-RTT p90 absolute error. The final snapshot is
	// embedded in the result verbatim.
	ContextURL string `json:"context_url,omitempty"`
	// ProfilePrefix overrides where knee profiles land (default: derived
	// from the -out path) — how the Makefile keeps BENCH_saturation.json
	// at the repo root while the binary pprofs go under results/.
	ProfilePrefix string `json:"profile_prefix,omitempty"`
}

func (p satParams) validate() []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if p.StartRate <= 0 {
		fail("-sat-start must be > 0 (got %v)", p.StartRate)
	}
	if p.MaxRate < p.StartRate {
		fail("-sat-max must be >= -sat-start (got %v < %v)", p.MaxRate, p.StartRate)
	}
	if p.StepFactor <= 1 {
		fail("-sat-factor must be > 1 (got %v)", p.StepFactor)
	}
	if p.StepS <= 0 {
		fail("-sat-step must be > 0 (got %vs)", p.StepS)
	}
	if p.SettleS < 0 {
		fail("-sat-settle must be >= 0 (got %vs)", p.SettleS)
	}
	if p.KneeRatio <= 1 {
		fail("-sat-ratio must be > 1 (got %v)", p.KneeRatio)
	}
	if p.KneeConfirm < 1 {
		fail("-sat-confirm must be >= 1 (got %d)", p.KneeConfirm)
	}
	if p.KneeMinAchieved <= 0 || p.KneeMinAchieved > 1 {
		fail("-sat-min-achieved must be in (0, 1] (got %v)", p.KneeMinAchieved)
	}
	if p.ProfileS < 0 {
		fail("-profile-dur must be >= 0 (got %vs)", p.ProfileS)
	}
	return errs
}

// satStepResult is one settled ramp step in the rate→latency curve.
type satStepResult struct {
	Step            int     `json:"step"`
	OfferedRate     float64 `json:"offered_rate"`
	AchievedRate    float64 `json:"achieved_rate"`
	MeasuredS       float64 `json:"measured_s"`
	Lifecycles      uint64  `json:"lifecycles"`
	Dropped         uint64  `json:"dropped_arrivals"`
	TransportErrors uint64  `json:"transport_errors"`
	ServerErrors    uint64  `json:"server_errors"`
	// Lifecycle is the coordinated-omission-corrected whole-lifecycle
	// distribution: measured from scheduled arrival, the knee detector's
	// input.
	Lifecycle opResult `json:"lifecycle"`
	// QueueWaitP99Us and LookupP99Us separate the two halves: time spent
	// waiting for a worker slot vs. pure service time on the wire.
	QueueWaitP99Us float64 `json:"queue_wait_p99_us"`
	LookupP99Us    float64 `json:"lookup_p99_us"`
	// Offending names the knee test this step failed against the
	// baseline in force when it completed ("" = clean).
	Offending string `json:"offending,omitempty"`

	// Efficiency attribution over the measured window, client side:
	// process-wide heap allocations per completed lifecycle (3 wire
	// requests each) and the wire batching ratios from the shared
	// obs.WireCounters deltas.
	AllocsPerOp          float64 `json:"allocs_per_op"`
	AllocBytesPerOp      float64 `json:"alloc_bytes_per_op"`
	FramesPerSyscall     float64 `json:"frames_per_syscall"`
	BytesPerWriteSyscall float64 `json:"bytes_per_write_syscall"`

	// Context-quality attribution over the step (server side, from
	// -debug-url): fraction of the step's lookups served from fresh
	// evidence (delta between boundary probes) and the server's
	// cumulative paired-RTT p90 absolute error at step end.
	CoverageFreshFrac float64 `json:"coverage_fresh_frac,omitempty"`
	RTTAbsErrP90Us    float64 `json:"rtt_abs_err_p90_us,omitempty"`
}

// profileCapture records where the knee-time profiles landed.
type profileCapture struct {
	CPUPath  string `json:"cpu_path,omitempty"`
	HeapPath string `json:"heap_path,omitempty"`
	Error    string `json:"error,omitempty"`
	// Ring echoes the server's /debug/prof/ring capture record for the
	// knee-triggered ring entry (best effort).
	Ring json.RawMessage `json:"ring,omitempty"`
}

// satResult is the machine-readable saturation report
// (BENCH_saturation.json): the full curve, the verdict, and the
// decomposition/profile evidence gathered at the knee.
type satResult struct {
	Tool              string          `json:"tool"`
	Config            runConfig       `json:"config"`
	Saturate          satParams       `json:"saturate"`
	StartedAt         string          `json:"started_at"`
	LatencyAccounting string          `json:"latency_accounting"`
	Steps             []satStepResult `json:"steps"`
	Knee              kneeVerdict     `json:"knee"`
	// MaxSustainableRate is the headline number: the achieved rate at
	// the last step the server handled with flat tails.
	MaxSustainableRate float64              `json:"max_sustainable_rate"`
	StagesClient       []trace.StageSummary `json:"stages_client,omitempty"`
	// StagesServer embeds the server's /debug/stages JSON verbatim
	// (cumulative over the whole ramp).
	StagesServer json.RawMessage `json:"stages_server,omitempty"`
	// WireClient is the client-side wire attribution over the whole run.
	WireClient obs.WireSnapshot `json:"wire_client"`
	// ResourcesServer embeds the server's /debug/resources snapshot
	// (runtime sampler + server-side wire counters) verbatim.
	ResourcesServer json.RawMessage `json:"resources_server,omitempty"`
	// Context embeds the server's /debug/context snapshot (freshness,
	// coverage, predictive accuracy) verbatim, fetched after the ramp.
	Context  json.RawMessage `json:"context,omitempty"`
	Profiles *profileCapture `json:"profiles,omitempty"`
}

// probeContext fetches the server's /debug/context document, of which the
// ramp consumes the cumulative coverage counters (differenced across a
// step to attribute the step's lookups) and the overall paired-RTT p90
// error; best effort — a nil return means the step simply carries no
// context attribution.
func probeContext(url string, logger *tlog.Logger) *quality.Snapshot {
	raw, err := fetchJSON(url)
	if err != nil {
		logger.Warn("context probe", "url", url, "err", err)
		return nil
	}
	var p quality.Snapshot
	if err := json.Unmarshal(raw, &p); err != nil {
		logger.Warn("context probe decode", "url", url, "err", err)
		return nil
	}
	return &p
}

// runSaturate drives the ramp. out is the result path (used to derive
// the profile file names); tracer may be nil (no client-side stage
// decomposition, load still flows).
func runSaturate(cfg runConfig, sp satParams, prefix, out string, tracer *trace.Tracer, logger *tlog.Logger) *satResult {
	var clientStages *trace.StageAggregator
	if tracer != nil {
		clientStages = trace.NewStageAggregator()
		tracer.Collector().AttachStages(clientStages)
	}

	// Shared offered-rate knob, retuned by the driver between steps.
	var rateBits atomic.Uint64
	rateBits.Store(math.Float64bits(sp.StartRate))

	var active atomic.Pointer[runStats]
	active.Store(newRunStats())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	startedAt := time.Now()

	// One WireCounters shared by the whole pool: frames and syscalls are
	// attributed to the run, not to a connection, which is what the per-
	// step batching-ratio deltas need.
	wire := obs.NewWireCounters()
	loop := openLoop{cfg: cfg, prefix: prefix, tracer: tracer, wire: wire, active: &active,
		rate: func() float64 { return math.Float64frombits(rateBits.Load()) }, slack: pacerSlack}
	defer loop.start(stop, &wg)()

	// The ramp: settle, measure, judge; stop on a confirmed knee or at
	// the safety cap.
	det := newKneeDetector(kneeConfig{Ratio: sp.KneeRatio, Confirm: sp.KneeConfirm, MinAchieved: sp.KneeMinAchieved})
	var steps []satStepResult
	rate := sp.StartRate
	for step := 0; ; step++ {
		rateBits.Store(math.Float64bits(rate))
		active.Store(newRunStats()) // settle scratch, discarded
		time.Sleep(time.Duration(sp.SettleS * float64(time.Second)))
		st := newRunStats()
		active.Store(st)
		t0 := time.Now()
		allocObj0, allocBytes0 := obs.AllocCounts()
		w0 := wire.Snapshot()
		var ctx0 *quality.Snapshot
		if sp.ContextURL != "" {
			ctx0 = probeContext(sp.ContextURL, logger)
		}
		time.Sleep(time.Duration(sp.StepS * float64(time.Second)))
		measured := time.Since(t0).Seconds()
		allocObj1, allocBytes1 := obs.AllocCounts()
		wd := wire.Snapshot().Sub(w0)
		// Context attribution: the coverage counters are cumulative, so
		// the step's own lookup mix is the delta between the boundary
		// probes; the accuracy quantile is cumulative by design (paired
		// predictions accrue over the whole run).
		var covFreshFrac, rttAbsErrP90 float64
		if ctx0 != nil {
			if ctx1 := probeContext(sp.ContextURL, logger); ctx1 != nil {
				dFresh := ctx1.Coverage.Fresh - ctx0.Coverage.Fresh
				dTotal := dFresh + (ctx1.Coverage.Stale - ctx0.Coverage.Stale) +
					(ctx1.Coverage.Fallback - ctx0.Coverage.Fallback)
				if dTotal > 0 {
					covFreshFrac = float64(dFresh) / float64(dTotal)
				}
				rttAbsErrP90 = ctx1.Accuracy["overall"].RTTAbsErrP90Us
			}
		}

		life := histResult(st.life.Snapshot())
		lifecycles := st.lifecycles.Load()
		achieved := float64(lifecycles) / measured
		terrs, serrs := st.errors()
		// Per-op attribution: process-wide heap alloc deltas over the window
		// divided by completed lifecycles (each lifecycle = 3 wire requests),
		// plus the batching ratios over the same window's wire deltas.
		var allocsPerOp, allocBytesPerOp float64
		if lifecycles > 0 {
			allocsPerOp = float64(allocObj1-allocObj0) / float64(lifecycles)
			allocBytesPerOp = float64(allocBytes1-allocBytes0) / float64(lifecycles)
		}
		p := kneePoint{
			Offered: rate, Achieved: achieved, P99Us: life.P99Us,
			AllocsPerOp:       allocsPerOp,
			FramesPerSyscall:  wd.FramesPerWriteSyscall,
			CoverageFreshFrac: covFreshFrac,
			RTTAbsErrP90:      rttAbsErrP90,
		}
		offending := det.offends(p)
		found := det.feed(p)
		steps = append(steps, satStepResult{
			Step:                 step,
			OfferedRate:          rate,
			AchievedRate:         achieved,
			MeasuredS:            measured,
			Lifecycles:           lifecycles,
			Dropped:              st.dropped.Load(),
			TransportErrors:      terrs,
			ServerErrors:         serrs,
			Lifecycle:            life,
			QueueWaitP99Us:       float64(st.queueWait.Snapshot().Quantile(0.99)) / 1e3,
			LookupP99Us:          float64(st.lookup.lat.Snapshot().Quantile(0.99)) / 1e3,
			Offending:            offending,
			AllocsPerOp:          allocsPerOp,
			AllocBytesPerOp:      allocBytesPerOp,
			FramesPerSyscall:     wd.FramesPerWriteSyscall,
			BytesPerWriteSyscall: wd.BytesPerWriteSyscall,
			CoverageFreshFrac:    covFreshFrac,
			RTTAbsErrP90Us:       rttAbsErrP90,
		})
		logger.Info("ramp step", "step", step,
			"offered", fmt.Sprintf("%.0f", rate),
			"achieved", fmt.Sprintf("%.0f", achieved),
			"life_p99_us", fmt.Sprintf("%.0f", life.P99Us),
			"dropped", st.dropped.Load(), "offending", offending)
		if found {
			break
		}
		rate *= sp.StepFactor
		if rate > sp.MaxRate {
			logger.Warn("ramp hit -sat-max without a confirmed knee", "max", sp.MaxRate)
			break
		}
	}
	knee := det.result()

	// Profile at the operating point that matters: hold the knee rate
	// (the load is still flowing) while the server profiles itself.
	var profiles *profileCapture
	if knee.Found && sp.PprofURL != "" {
		rateBits.Store(math.Float64bits(knee.OfferedRate))
		profiles = captureProfiles(sp, out, logger)
	}

	close(stop)
	wg.Wait()

	res := &satResult{
		Tool:               "phi-load",
		Config:             cfg,
		Saturate:           sp,
		StartedAt:          startedAt.UTC().Format(time.RFC3339),
		LatencyAccounting:  coAccountingNote,
		Steps:              steps,
		Knee:               knee,
		MaxSustainableRate: knee.Rate,
		WireClient:         wire.Snapshot(),
		Profiles:           profiles,
	}
	if clientStages != nil {
		res.StagesClient = clientStages.Summaries()
	}
	for _, scrape := range []struct {
		what, url string
		into      *json.RawMessage
	}{
		{"stages", sp.StagesURL, &res.StagesServer},
		{"resources", sp.ResourcesURL, &res.ResourcesServer},
		{"context", sp.ContextURL, &res.Context},
	} {
		if scrape.url == "" {
			continue
		}
		raw, err := fetchJSON(scrape.url)
		if err != nil {
			logger.Error("fetch server "+scrape.what, "url", scrape.url, "err", err)
			continue
		}
		*scrape.into = raw
	}
	logger.Info("saturation ramp done", "steps", len(steps), "verdict", knee.String())
	return res
}

// captureProfiles pulls a CPU profile (ProfileS seconds, while load
// holds at the knee rate) and a heap snapshot from the server's debug
// port, writing them next to the result JSON.
func captureProfiles(sp satParams, out string, logger *tlog.Logger) *profileCapture {
	base := sp.ProfilePrefix
	if base == "" {
		base = strings.TrimSuffix(out, ".json")
	}
	if base == "" {
		base = "BENCH_saturation"
	}
	pc := &profileCapture{}
	secs := int(sp.ProfileS)
	if secs < 1 {
		secs = 1
	}
	cpuURL := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", strings.TrimSuffix(sp.PprofURL, "/"), secs)
	cpuPath := base + "_cpu.pprof"
	logger.Info("capturing CPU profile at the knee", "url", cpuURL, "out", cpuPath)
	if err := fetchToFile(cpuURL, cpuPath, time.Duration(secs+10)*time.Second); err != nil {
		pc.Error = fmt.Sprintf("cpu profile: %v", err)
		logger.Error("cpu profile", "err", err)
	} else {
		pc.CPUPath = cpuPath
	}
	heapURL := strings.TrimSuffix(sp.PprofURL, "/") + "/debug/pprof/heap"
	heapPath := base + "_heap.pprof"
	if err := fetchToFile(heapURL, heapPath, 10*time.Second); err != nil {
		if pc.Error != "" {
			pc.Error += "; "
		}
		pc.Error += fmt.Sprintf("heap profile: %v", err)
		logger.Error("heap profile", "err", err)
	} else {
		pc.HeapPath = heapPath
	}
	// Best-effort: ask the server to also drop a knee-tagged entry into
	// its on-disk profile ring, so the evidence survives on the server
	// side too. AFTER the pprof fetches — the ring's own StartCPUProfile
	// would conflict with an in-flight /debug/pprof/profile.
	ringURL := strings.TrimSuffix(sp.PprofURL, "/") + "/debug/prof/ring?op=capture&reason=knee"
	if raw, err := fetchJSON(ringURL); err != nil {
		logger.Warn("ring knee capture", "err", err)
	} else {
		pc.Ring = raw
	}
	return pc
}

// fetchToFile GETs url into path.
func fetchToFile(url, path string, timeout time.Duration) error {
	cl := http.Client{Timeout: timeout}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fetchJSON GETs url and returns the body if it parses as JSON.
func fetchJSON(url string) (json.RawMessage, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("%s: response is not JSON", url)
	}
	return json.RawMessage(body), nil
}
