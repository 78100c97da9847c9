// Command phi-load drives the real Phi wire protocol against a running
// phi-cluster and reports throughput and latency
// quantiles as machine-readable JSON — the yardstick for every perf
// change to the context-server data path.
//
// Each generated operation is one connection lifecycle, exactly the
// paper's per-connection protocol: a context lookup at "connection
// start", a start report, and an end report carrying a synthetic
// transfer summary. Two load models are supported:
//
//   - closed (default): N workers, each with its own TCP connection,
//     issue lifecycles back to back. Throughput is limited by server
//     latency; this measures capacity.
//   - open: lifecycles arrive by a Poisson process at -rate per second,
//     independent of completions, served by a bounded in-flight pool
//     over a fixed connection pool. This measures tail latency at a
//     fixed offered load, the number that decides whether a shared
//     control plane is affordable (arrivals do not slow down when the
//     server does). Lifecycle latency is coordinated-omission
//     corrected: measured from the scheduled arrival, not the send.
//   - saturate: the open loop with a closed control loop on top
//     (saturate.go). The offered rate ramps geometrically until the
//     online knee detector (knee.go) confirms the p99 knee; the result
//     (BENCH_saturation.json) carries the full rate→latency curve, the
//     max sustainable rate, per-stage decompositions, and — with
//     -debug-url — CPU/heap profiles captured at the knee.
//
// Everything phi-load scrapes from the target (saturate mode's stages,
// resources, context and profiles; -fault-match's /debug/health
// detection; -chaos's /debug/fleet) is reached through one -debug-url,
// the target's -metrics-addr, whose /debug/ index is read once at
// start-up (debug.go).
//
// One further mode exercises the passive-ingest path instead of the
// wire protocol (see ipfix.go): -mode ipfix floods a server's
// -ipfix-addr collector with synthetic TCP-template IPFIX over UDP.
//
// Path keys are drawn uniformly or Zipf-skewed from -paths distinct
// keys, modelling a few hot inter-datacenter paths among many cold
// ones.
//
// Example, against a 4-shard cluster:
//
//	phi-cluster -listen 127.0.0.1:7731 -shards 4 -metrics-addr 127.0.0.1:7732 &
//	phi-load -addr 127.0.0.1:7731 -mode open -rate 2000 -duration 30s \
//	    -warmup 2s -paths 64 -skew zipf -out /tmp/phi_load.json
//
// The JSON result includes per-op latency quantiles (p50/p90/p99/p999),
// throughput, and error/degrade counts; the warmup window is excluded.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	tlog "repro/internal/trace/log"
)

// opLifecycle is the root span covering one full connection protocol
// exchange (lookup + start report + end report).
var opLifecycle = trace.Name("loadgen.lifecycle")

func main() {
	// Knobs whose flag type is their config type bind straight into it;
	// durations (echoed as float seconds) are copied after Parse.
	var (
		cfg runConfig
		sp  satParams
		ic  ipfixConfig
	)
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:7731", "context server address")
	flag.StringVar(&cfg.Mode, "mode", "closed", "load model: closed (worker pool), open (Poisson arrivals), saturate (ramp to the p99 knee) or ipfix (UDP export flood)")
	flag.IntVar(&cfg.Workers, "workers", 32, "closed-loop worker count (one connection each)")
	flag.Float64Var(&cfg.RatePerSec, "rate", 1000, "open-loop arrival rate, lifecycles/s")
	flag.IntVar(&cfg.Conns, "conns", 64, "open-loop connection pool size")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 4096, "open-loop bound on concurrent lifecycles (excess arrivals are dropped and counted)")
	duration := flag.Duration("duration", 30*time.Second, "measured run length (after warmup)")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup length excluded from results")
	flag.IntVar(&cfg.Paths, "paths", 64, "distinct path keys")
	pathPrefix := flag.String("path-prefix", "path-", "path key prefix")
	flag.StringVar(&cfg.Grid, "grid", "", "structure path keys over a SxIxM service/ISP/metro grid (e.g. 1x4x4): keys become svc-i/isp-j/metro-k/p-n, the slices the server's health monitor localizes over")
	flag.StringVar(&cfg.FaultMatch, "fault-match", "", "mid-run fault injection: suppress lifecycles whose path contains this substring (e.g. isp-1/metro-1)")
	faultAfter := flag.Duration("fault-after", 10*time.Second, "fault start, measured from run start (warmup included)")
	faultFor := flag.Duration("fault-for", 15*time.Second, "fault duration (0 = until the run ends)")
	flag.StringVar(&cfg.DebugURL, "debug-url", "", "the target's debug base URL (its -metrics-addr, e.g. http://127.0.0.1:7732). Its /debug/ index is read once at start-up and every scrape derives from it: saturate mode embeds /debug/stages, /debug/resources and /debug/context and captures knee profiles; -fault-match polls /debug/health and reports detection and time-to-detect; -chaos drives /debug/fleet")
	flag.BoolVar(&cfg.Chaos, "chaos", false, "chaos mode: kill fleet primaries through the target's /debug/fleet mid-run and assert zero lost lifecycles and bounded auto-remediation (exit 1 on violation); requires -debug-url")
	chaosFirst := flag.Duration("chaos-first", 3*time.Second, "chaos: first kill, measured from run start (warmup included)")
	chaosEvery := flag.Duration("chaos-every", 5*time.Second, "chaos: gap between kills")
	chaosKills := flag.Int("chaos-kills", 3, "chaos: number of primaries to kill")
	chaosBound := flag.Duration("chaos-bound", 10*time.Second, "chaos: max allowed time from kill to the member reporting healthy")
	flag.StringVar(&cfg.Skew, "skew", "uniform", "path key distribution: uniform or zipf")
	flag.Float64Var(&cfg.ZipfS, "zipf-s", 1.2, "zipf skew exponent (>1)")
	flag.Float64Var(&cfg.MeanBytes, "mean-bytes", 1<<20, "mean synthetic transfer size reported at connection end")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request timeout")
	flag.Int64Var(&cfg.Seed, "seed", 1, "PRNG seed")
	out := flag.String("out", "", "write the JSON result here (default stdout)")
	traceOn := flag.Bool("trace", false, "trace lifecycles end to end (propagated to the server over the wire)")
	traceDump := flag.String("trace-dump", "", "write retained traces in text form to this file at exit (requires -trace)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/traces and pprof on this address while running")
	logLevel := flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines (default logfmt)")
	flag.Float64Var(&sp.StartRate, "sat-start", 2000, "saturate mode: first ramp step's offered rate, lifecycles/s")
	flag.Float64Var(&sp.MaxRate, "sat-max", 1e6, "saturate mode: safety cap on offered rate (the ramp stops there even without a knee)")
	flag.Float64Var(&sp.StepFactor, "sat-factor", 1.5, "saturate mode: geometric offered-rate multiplier per step")
	satStep := flag.Duration("sat-step", 5*time.Second, "saturate mode: measured window per ramp step")
	satSettle := flag.Duration("sat-settle", 1*time.Second, "saturate mode: settling time after each rate change, excluded from the step's measurement")
	flag.Float64Var(&sp.KneeRatio, "sat-ratio", 3, "saturate mode: p99 blowup over the flat-region baseline that marks a step offending")
	flag.IntVar(&sp.KneeConfirm, "sat-confirm", 2, "saturate mode: consecutive offending steps that confirm the knee")
	flag.Float64Var(&sp.KneeMinAchieved, "sat-min-achieved", 0.9, "saturate mode: achieved/offered floor below which a step is offending")
	profileDur := flag.Duration("profile-dur", 5*time.Second, "saturate mode: CPU profile length, captured through -debug-url while holding knee-rate load (0 = no knee profiles)")
	flag.StringVar(&sp.ProfilePrefix, "profile-prefix", "", "saturate mode: path prefix for the knee profile files (default: the -out path minus .json)")
	flag.StringVar(&ic.Addr, "ipfix-addr", "127.0.0.1:4739", "ipfix mode: collector UDP address to flood")
	flag.IntVar(&ic.Flows, "ipfix-flows", 256, "ipfix mode: concurrent synthetic TCP flows")
	flag.IntVar(&ic.Paths, "ipfix-paths", 16, "ipfix mode: distinct destination /24 paths")
	flag.Float64Var(&ic.LossRate, "ipfix-loss", 0.01, "ipfix mode: planted retransmit probability")
	flag.Float64Var(&ic.RatePerSec, "ipfix-rate", 0, "ipfix mode: records/s pacing (0 = unpaced)")
	flag.Parse()

	lvl, err := tlog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var lopts []tlog.Option
	if *logJSON {
		lopts = append(lopts, tlog.WithJSON())
	}
	logger := tlog.New(os.Stderr, lvl, lopts...).Component("phi-load")

	// The IPFIX mode shares none of the wire-protocol plumbing below
	// (no connections, no probe): dispatch before touching runConfig.
	if cfg.Mode == "ipfix" {
		ic.DurationS, ic.Seed = duration.Seconds(), cfg.Seed
		runIPFIXMode(ic, *out, logger)
		return
	}

	cfg.DurationS, cfg.WarmupS, cfg.TimeoutS = duration.Seconds(), warmup.Seconds(), timeout.Seconds()
	cfg.FaultAfterS, cfg.FaultForS = faultAfter.Seconds(), faultFor.Seconds()
	if cfg.Chaos {
		cfg.ChaosFirstS = chaosFirst.Seconds()
		cfg.ChaosEveryS = chaosEvery.Seconds()
		cfg.ChaosKills = *chaosKills
		cfg.ChaosBoundS = chaosBound.Seconds()
	}
	sp.StepS, sp.SettleS, sp.ProfileS = satStep.Seconds(), satSettle.Seconds(), profileDur.Seconds()
	errs := cfg.validate()
	if cfg.Mode == "saturate" {
		errs = append(errs, sp.validate()...)
	}
	if cfg.DebugURL != "" {
		errs = append(errs, resolveDebug(&cfg, &sp)...)
	}
	if *traceDump != "" && !*traceOn {
		errs = append(errs, errors.New("-trace-dump requires -trace"))
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "phi-load:", e)
		}
		os.Exit(2)
	}

	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.NewTracer(trace.Config{})
		logger.Info("tracing enabled", "mode", cfg.Mode)
	}
	if *debugAddr != "" {
		// The loadgen watches its own resource footprint too: a saturation
		// verdict is only as honest as the client's headroom.
		sampler := obs.NewSampler(obs.SamplerConfig{})
		defer sampler.Start()()
		ds, err := telemetry.Serve(*debugAddr, nil,
			telemetry.Endpoint{Path: "/debug/traces", Handler: tracer.Collector().Handler(), Desc: "retained lifecycle traces"},
			telemetry.Endpoint{Path: "/debug/resources", Handler: sampler.Handler(), Desc: "loadgen runtime resource snapshot"})
		if err != nil {
			logger.Fatal("debug server", "err", err)
		}
		defer ds.Close()
		logger.Info("debug server up", "addr", ds.Addr().String())
	}

	// Fail fast if the server is unreachable before spinning anything up.
	probe := phiwire.Dial(cfg.Addr, *timeout)
	if _, err := probe.Lookup(makeKeys(cfg, *pathPrefix)[0]); err != nil {
		var se phiwire.ServerError
		if !errors.As(err, &se) {
			logger.Fatal("context server unreachable", "addr", cfg.Addr, "err", err)
		}
	}
	probe.Close()

	// res stays nil in saturate mode (no chaos verdict to judge below).
	var (
		res     *result
		summary any
		done    []any // the closing log line's fields
	)
	if cfg.Mode == "saturate" {
		sres := runSaturate(cfg, sp, *pathPrefix, *out, tracer, logger)
		summary, done = sres, []any{"out", *out, "verdict", sres.Knee.String()}
	} else {
		res = run(cfg, *pathPrefix, tracer)
		summary, done = res, []any{"out", *out,
			"lifecycles_per_sec", fmt.Sprintf("%.0f", res.LifecyclesPerSec),
			"lookup_p99_us", fmt.Sprintf("%.0f", res.Ops["lookup"].P99Us)}
	}

	if *traceDump != "" {
		if err := dumpTraces(*traceDump, tracer.Collector()); err != nil {
			logger.Error("trace dump", "err", err)
		} else {
			logger.Info("wrote trace dump", "path", *traceDump)
		}
	}

	enc, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		logger.Fatal("encode result", "err", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			logger.Fatal("write result", "err", err)
		}
		logger.Info("run complete", done...)
	}

	// Chaos verdict: the whole point of -chaos is an executable
	// assertion, so violations are an exit code, not just JSON.
	if res != nil && res.Chaos != nil {
		lost := res.ErrorsTotal + res.DegradedTotal
		switch {
		case lost != 0:
			logger.Error("chaos FAILED: lifecycles lost during remediation",
				"errors", res.ErrorsTotal, "degraded", res.DegradedTotal)
			os.Exit(1)
		case !res.Chaos.Passed:
			logger.Error("chaos FAILED", "completed", res.Chaos.Completed,
				"planned", res.Chaos.Planned, "err", res.Chaos.Error)
			os.Exit(1)
		default:
			worst := 0.0
			for _, k := range res.Chaos.Kills {
				if k.RemediateS > worst {
					worst = k.RemediateS
				}
			}
			logger.Info("chaos passed: zero lost lifecycles, remediation bounded",
				"kills", res.Chaos.Completed, "worst_remediate_s", fmt.Sprintf("%.2f", worst))
		}
	}
}

// dumpTraces writes every retained trace (errors first, then slowest,
// then the sampled rest) in the human-readable text form.
func dumpTraces(path string, col *trace.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var all []*trace.Trace
	all = append(all, col.Errors()...)
	all = append(all, col.Slowest()...)
	all = append(all, col.Sampled()...)
	trace.WriteText(f, all)
	return f.Close()
}

// runConfig echoes the knobs into the result for reproducibility.
type runConfig struct {
	Addr        string  `json:"addr"`
	Mode        string  `json:"mode"`
	Workers     int     `json:"workers,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Conns       int     `json:"conns,omitempty"`
	MaxInflight int     `json:"max_inflight,omitempty"`
	DurationS   float64 `json:"duration_s"`
	WarmupS     float64 `json:"warmup_s"`
	Paths       int     `json:"paths"`
	Skew        string  `json:"skew"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	MeanBytes   float64 `json:"mean_bytes"`
	TimeoutS    float64 `json:"timeout_s"`
	Seed        int64   `json:"seed"`
	Grid        string  `json:"grid,omitempty"`
	FaultMatch  string  `json:"fault_match,omitempty"`
	FaultAfterS float64 `json:"fault_after_s,omitempty"`
	FaultForS   float64 `json:"fault_for_s,omitempty"`
	DebugURL    string  `json:"debug_url,omitempty"`
	Chaos       bool    `json:"chaos,omitempty"`
	// HealthURL and ChaosURL are not knobs: resolveDebug derives them from
	// the target's /debug/ index, and the echo records what was scraped.
	HealthURL   string  `json:"health_url,omitempty"`
	ChaosURL    string  `json:"chaos_url,omitempty"`
	ChaosFirstS float64 `json:"chaos_first_s,omitempty"`
	ChaosEveryS float64 `json:"chaos_every_s,omitempty"`
	ChaosKills  int     `json:"chaos_kills,omitempty"`
	ChaosBoundS float64 `json:"chaos_bound_s,omitempty"`
}

// parseGrid parses a SxIxM grid spec ("1x4x4") into its three
// dimension sizes.
func parseGrid(spec string) (dims [3]int, err error) {
	parts := strings.Split(spec, "x")
	if len(parts) != 3 {
		return dims, fmt.Errorf("want SxIxM (e.g. 1x4x4), got %q", spec)
	}
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return dims, fmt.Errorf("bad grid dimension %q in %q", p, spec)
		}
		dims[i] = n
	}
	return dims, nil
}

// validate checks every knob up front and returns all problems at once,
// so a misconfigured run dies before dialing anything rather than
// producing a garbage benchmark file.
func (c runConfig) validate() []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if c.Addr == "" {
		fail("-addr must not be empty")
	}
	switch c.Mode {
	case "closed":
		if c.Workers < 1 {
			fail("-workers must be >= 1 (got %d)", c.Workers)
		}
	case "open", "saturate":
		// Saturate's ramp schedule lives in satParams (validated there)
		// and replaces -rate; the open-loop plumbing knobs are shared.
		if c.Mode == "open" && c.RatePerSec <= 0 {
			fail("-rate must be > 0 (got %v)", c.RatePerSec)
		}
		if c.Conns < 1 {
			fail("-conns must be >= 1 (got %d)", c.Conns)
		}
		if c.MaxInflight < 1 {
			fail("-max-inflight must be >= 1 (got %d)", c.MaxInflight)
		}
	default:
		fail("-mode must be closed, open, saturate, or ipfix (got %q)", c.Mode)
	}
	if c.DurationS <= 0 {
		fail("-duration must be > 0 (got %vs)", c.DurationS)
	}
	if c.WarmupS < 0 {
		fail("-warmup must be >= 0 (got %vs)", c.WarmupS)
	}
	if c.Paths < 1 {
		fail("-paths must be >= 1 (got %d)", c.Paths)
	}
	switch c.Skew {
	case "uniform":
	case "zipf":
		if c.ZipfS <= 1 {
			fail("-zipf-s must be > 1 (got %v)", c.ZipfS)
		}
		if c.Paths < 2 {
			fail("-skew zipf needs -paths >= 2 (got %d)", c.Paths)
		}
	default:
		fail("-skew must be uniform or zipf (got %q)", c.Skew)
	}
	if c.MeanBytes <= 0 {
		fail("-mean-bytes must be > 0 (got %v)", c.MeanBytes)
	}
	if c.TimeoutS <= 0 {
		fail("-timeout must be > 0 (got %vs)", c.TimeoutS)
	}
	if c.Grid != "" {
		if _, err := parseGrid(c.Grid); err != nil {
			fail("-grid: %v", err)
		}
	}
	if c.FaultMatch != "" {
		if c.FaultAfterS < 0 {
			fail("-fault-after must be >= 0 (got %vs)", c.FaultAfterS)
		}
		if c.FaultForS < 0 {
			fail("-fault-for must be >= 0 (got %vs)", c.FaultForS)
		}
		if c.FaultAfterS >= c.WarmupS+c.DurationS {
			fail("-fault-after %vs is past the end of the run (%vs)", c.FaultAfterS, c.WarmupS+c.DurationS)
		}
	}
	if c.Chaos {
		if c.DebugURL == "" {
			fail("-chaos requires -debug-url (the fleet's /debug/fleet is reached through it)")
		}
		if c.ChaosKills < 1 {
			fail("-chaos-kills must be >= 1 (got %d)", c.ChaosKills)
		}
		if c.ChaosFirstS < 0 {
			fail("-chaos-first must be >= 0 (got %vs)", c.ChaosFirstS)
		}
		if c.ChaosEveryS < 0 {
			fail("-chaos-every must be >= 0 (got %vs)", c.ChaosEveryS)
		}
		if c.ChaosBoundS <= 0 {
			fail("-chaos-bound must be > 0 (got %vs)", c.ChaosBoundS)
		}
		if c.ChaosFirstS >= c.WarmupS+c.DurationS {
			fail("-chaos-first %vs is past the end of the run (%vs)", c.ChaosFirstS, c.WarmupS+c.DurationS)
		}
	}
	return errs
}

// opStats accumulates one operation type's outcomes (telemetry
// histograms double as the loadgen's own measurement instrument).
type opStats struct {
	lat       *telemetry.Histogram
	transport atomic.Uint64 // connection/timeout failures
	server    atomic.Uint64 // application-level (degrade) errors
}

func newOpStats() *opStats { return &opStats{lat: telemetry.NewHistogram()} }

func (o *opStats) record(start time.Time, err error) {
	o.lat.Observe(time.Since(start))
	if err == nil {
		return
	}
	var se phiwire.ServerError
	if errors.As(err, &se) {
		o.server.Add(1)
	} else {
		o.transport.Add(1)
	}
}

// runStats is one measurement window's counters; the warmup window gets
// its own instance, discarded at the switch.
type runStats struct {
	lookup, start, end *opStats
	queueWait          *telemetry.Histogram // open loop: arrival -> issue
	// life is the whole-lifecycle latency measured from the *intended*
	// (scheduled) arrival time, not the moment the request finally got a
	// worker — the coordinated-omission correction. When the server
	// stalls, arrivals that waited in the queue carry their wait; the
	// stall cannot hide itself by delaying its own measurement.
	life       *telemetry.Histogram
	lifecycles atomic.Uint64
	dropped    atomic.Uint64 // open loop: arrivals past max-inflight
}

// errors sums the three ops' transport and server (degrade) errors.
func (st *runStats) errors() (transport, server uint64) {
	for _, o := range []*opStats{st.lookup, st.start, st.end} {
		transport += o.transport.Load()
		server += o.server.Load()
	}
	return transport, server
}

func newRunStats() *runStats {
	return &runStats{
		lookup:    newOpStats(),
		start:     newOpStats(),
		end:       newOpStats(),
		queueWait: telemetry.NewHistogram(),
		life:      telemetry.NewHistogram(),
	}
}

// histResult reduces a bare histogram snapshot to the opResult JSON
// shape (no error counters).
func histResult(s *telemetry.HistSnapshot) opResult {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return opResult{
		Count:  s.Count,
		MeanUs: s.Mean() / 1e3,
		P50Us:  us(s.Quantile(0.5)),
		P90Us:  us(s.Quantile(0.9)),
		P99Us:  us(s.Quantile(0.99)),
		P999Us: us(s.Quantile(0.999)),
		MaxUs:  us(s.Max()),
	}
}

// coAccountingNote documents the coordinated-omission correction in
// every JSON result that carries schedule-anchored latencies.
const coAccountingNote = "lifecycle latencies are measured from the intended (scheduled) arrival time, not the actual send — queue wait under overload is included (coordinated-omission corrected); per-op latencies remain service time only"

// opResult is the JSON form of one op's latency distribution.
type opResult struct {
	Count           uint64  `json:"count"`
	TransportErrors uint64  `json:"transport_errors"`
	ServerErrors    uint64  `json:"server_errors"`
	MeanUs          float64 `json:"mean_us"`
	P50Us           float64 `json:"p50_us"`
	P90Us           float64 `json:"p90_us"`
	P99Us           float64 `json:"p99_us"`
	P999Us          float64 `json:"p999_us"`
	MaxUs           float64 `json:"max_us"`
}

func (o *opStats) result() opResult {
	r := histResult(o.lat.Snapshot())
	r.TransportErrors, r.ServerErrors = o.transport.Load(), o.server.Load()
	return r
}

// result is the machine-readable run summary of the closed and open modes.
type result struct {
	Tool             string    `json:"tool"`
	Config           runConfig `json:"config"`
	StartedAt        string    `json:"started_at"`
	MeasuredS        float64   `json:"measured_s"`
	Lifecycles       uint64    `json:"lifecycles"`
	LifecyclesPerSec float64   `json:"lifecycles_per_sec"`
	OpsPerSec        float64   `json:"ops_per_sec"`
	ErrorsTotal      uint64    `json:"errors_total"`
	DegradedTotal    uint64    `json:"degraded_total"`
	Dropped          uint64    `json:"dropped_arrivals"`
	// LatencyAccounting documents how the "lifecycle" entry in Ops is
	// measured (open loop only): see coAccountingNote.
	LatencyAccounting string              `json:"latency_accounting,omitempty"`
	Ops               map[string]opResult `json:"ops"`
	Fault             *faultResult        `json:"fault,omitempty"`
	Health            *healthResult       `json:"health,omitempty"`
	Chaos             *chaosResult        `json:"chaos,omitempty"`
}

// makeKeys builds the path key universe. With -grid SxIxM, keys are
// structured as svc-i/isp-j/metro-k/p-n — the slice labels the
// server-side health monitor aggregates over and localizes against
// (internal/health.DefaultSlicer splits on "/"). Keys are spread
// round-robin over the grid cells so every slice carries traffic.
// Without -grid, keys are the flat prefix0..prefixN-1 series.
func makeKeys(cfg runConfig, prefix string) []phi.PathKey {
	keys := make([]phi.PathKey, cfg.Paths)
	if cfg.Grid != "" {
		dims, err := parseGrid(cfg.Grid) // validated before run start
		if err != nil {
			panic(err)
		}
		for i := range keys {
			cell := i % (dims[0] * dims[1] * dims[2])
			svc := cell % dims[0]
			isp := (cell / dims[0]) % dims[1]
			metro := cell / (dims[0] * dims[1]) % dims[2]
			keys[i] = phi.PathKey(fmt.Sprintf("svc-%d/isp-%d/metro-%d/p-%d", svc, isp, metro, i))
		}
		return keys
	}
	for i := range keys {
		keys[i] = phi.PathKey(fmt.Sprintf("%s%d", prefix, i))
	}
	return keys
}

// pathPicker returns a per-goroutine path chooser (rand.Rand and
// rand.Zipf are not concurrency-safe, so each worker gets its own,
// seeded deterministically).
func pathPicker(cfg runConfig, prefix string, workerSeed int64) func() phi.PathKey {
	keys := makeKeys(cfg, prefix)
	rng := rand.New(rand.NewSource(workerSeed))
	if cfg.Skew == "zipf" {
		z := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Paths-1))
		return func() phi.PathKey { return keys[z.Uint64()] }
	}
	return func() phi.PathKey { return keys[rng.Intn(cfg.Paths)] }
}

// lifecycle performs one full connection protocol exchange and records
// each phase into st. With a tracer, the whole exchange becomes one
// trace rooted here: the per-request client spans (and, over the wire,
// the server's handling and routing spans) hang off the lifecycle span.
func lifecycle(tr *trace.Tracer, cl *phiwire.Client, path phi.PathKey, st *runStats, rng *rand.Rand, meanBytes float64) {
	sp := tr.Start(trace.SpanContext{}, opLifecycle)
	sc := sp.Context()
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	t0 := time.Now()
	_, err := cl.LookupSpan(sc, path)
	st.lookup.record(t0, err)
	keep(err)

	t1 := time.Now()
	err = cl.ReportStartSpan(sc, path)
	st.start.record(t1, err)
	keep(err)

	// Synthetic transfer: exponential sizes around the mean, plausible
	// RTTs so the server's q estimator has something to chew on.
	bytes := int64(rng.ExpFloat64() * meanBytes)
	minRTT := 20*sim.Millisecond + sim.Time(rng.Int63n(int64(20*sim.Millisecond)))
	avgRTT := minRTT + sim.Time(rng.Int63n(int64(10*sim.Millisecond)))
	rep := phi.Report{
		Bytes:    bytes,
		Duration: sim.Time(float64(bytes) * 8 / 1e9 * float64(sim.Second)),
		AvgRTT:   avgRTT,
		MinRTT:   minRTT,
		LossRate: 0,
	}
	t2 := time.Now()
	err = cl.ReportEndSpan(sc, path, rep)
	st.end.record(t2, err)
	keep(err)

	sp.End(firstErr)
	st.lifecycles.Add(1)
}

// faultCtl injects the mid-run fault: while active, lifecycles whose
// path contains the match substring are suppressed before they reach
// the wire — exactly the silent partial outage (a slice of the
// workload going dark) the server-side health monitor exists to
// detect and localize. drop is nil-safe so the hot loops pay one
// branch when no fault is configured.
type faultCtl struct {
	match      string
	active     atomic.Bool
	suppressed atomic.Uint64
	injectedAt atomic.Int64 // wall clock, unix nanos, set once at activation
}

func (f *faultCtl) drop(path phi.PathKey) bool {
	if f == nil || !f.active.Load() || !strings.Contains(string(path), f.match) {
		return false
	}
	f.suppressed.Add(1)
	return true
}

// schedule arms the fault: after cfg.FaultAfterS (measured from run
// start, warmup included) suppression turns on; after cfg.FaultForS
// more it turns off again (0 = hold until the run ends).
func (f *faultCtl) schedule(cfg runConfig, stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(cfg.FaultAfterS * float64(time.Second))):
		}
		f.injectedAt.Store(time.Now().UnixNano())
		f.active.Store(true)
		if cfg.FaultForS == 0 {
			return
		}
		select {
		case <-stop:
		case <-time.After(time.Duration(cfg.FaultForS * float64(time.Second))):
		}
		f.active.Store(false)
	}()
}

// faultResult summarizes the injected fault in the JSON output.
type faultResult struct {
	Match                string  `json:"match"`
	InjectedAtS          float64 `json:"injected_at_s"` // offset from run start
	DurationS            float64 `json:"duration_s"`    // 0 = until run end
	SuppressedLifecycles uint64  `json:"suppressed_lifecycles"`
}

// healthResult is the end-of-run detection summary: did the server's
// monitor notice the fault we injected, how long did it take, and
// where did it localize it.
type healthResult struct {
	URL            string  `json:"url"`
	Polls          uint64  `json:"polls"`
	PollErrors     uint64  `json:"poll_errors"`
	FinalStatus    string  `json:"final_status,omitempty"`
	AnomaliesSeen  int     `json:"anomalies_seen"`
	FaultDetected  bool    `json:"fault_detected"`
	DetectedScope  string  `json:"detected_scope,omitempty"`
	Localization   string  `json:"localization,omitempty"`
	TimeToDetectS  float64 `json:"time_to_detect_s,omitempty"`  // anomaly started_at - fault injection
	TimeToObserveS float64 `json:"time_to_observe_s,omitempty"` // first poll showing it - fault injection
}

// healthWatcher polls /debug/health during the run, tracking every
// distinct anomaly and the first one matching the injected fault.
type healthWatcher struct {
	url   string
	fault *faultCtl

	mu       sync.Mutex
	res      healthResult
	seen     map[uint64]struct{}
	detected *health.Anomaly
	firstObs time.Time // wall clock of the poll that first showed the match
}

func newHealthWatcher(url string, fault *faultCtl) *healthWatcher {
	return &healthWatcher{url: url, fault: fault, seen: make(map[uint64]struct{}), res: healthResult{URL: url}}
}

func (w *healthWatcher) start(stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				w.poll() // final look so late detections still count
				return
			case <-tick.C:
				w.poll()
			}
		}
	}()
}

func (w *healthWatcher) poll() {
	var snap health.Snapshot // the daemon's own type: a renamed field breaks the build, not the scrape
	raw, err := fetchJSON(w.url)
	if err == nil {
		err = json.Unmarshal(raw, &snap)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.res.Polls++
	if err != nil {
		w.res.PollErrors++
		return
	}
	w.res.FinalStatus = snap.Status
	for _, a := range append(snap.Active, snap.Recent...) {
		a := a
		w.seen[a.ID] = struct{}{}
		// Credit the detection to the injected fault if the anomaly's
		// scope or localization mentions the suppressed slice.
		if w.fault != nil && w.detected == nil &&
			(strings.Contains(a.Scope, w.fault.match) || strings.Contains(a.Localization, w.fault.match)) {
			w.detected = &a
			w.firstObs = time.Now()
		}
		if w.detected != nil && a.ID == w.detected.ID && a.Localization != "" {
			w.detected.Localization = a.Localization // localization can arrive on a later sweep
		}
	}
}

// summary finalizes the watcher's result once the run is over.
func (w *healthWatcher) summary() *healthResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.res.AnomaliesSeen = len(w.seen)
	if w.detected != nil {
		w.res.FaultDetected = true
		w.res.DetectedScope = w.detected.Scope
		w.res.Localization = w.detected.Localization
		if inj := w.fault.injectedAt.Load(); inj != 0 {
			injAt := time.Unix(0, inj)
			w.res.TimeToDetectS = w.detected.StartedAt.Sub(injAt).Seconds()
			w.res.TimeToObserveS = w.firstObs.Sub(injAt).Seconds()
		}
	}
	r := w.res
	return &r
}

// openLoop is the arrival machinery open and saturate modes share: a
// fixed connection pool that lifecycles grab round-robin, a bounded pool
// of in-flight workers, and a Poisson arrival generator that never
// blocks — an arrival that finds the queue full is dropped and counted,
// because queuing it would silently close the loop.
type openLoop struct {
	cfg    runConfig
	prefix string
	tracer *trace.Tracer
	wire   *obs.WireCounters // shared by the whole pool; nil = unattributed
	fault  *faultCtl         // nil = no suppression
	active *atomic.Pointer[runStats]
	rate   func() float64 // offered lifecycles/s, re-read for every arrival
	slack  time.Duration  // the generator parks on a timer only when further ahead of schedule than this
}

// start dials the pool and launches the workers and the generator, which
// exit when stop closes (wg tracks them). The returned function closes
// the pool; call it after wg.Wait.
func (o openLoop) start(stop <-chan struct{}, wg *sync.WaitGroup) (closePool func()) {
	cfg := o.cfg
	pool := make([]*phiwire.Client, cfg.Conns)
	for i := range pool {
		pool[i] = phiwire.Dial(cfg.Addr, time.Duration(cfg.TimeoutS*float64(time.Second)))
		pool[i].SetTracer(o.tracer)
		pool[i].SetWire(o.wire)
	}
	var next atomic.Uint64
	type arrival struct{ at time.Time }
	queue := make(chan arrival, cfg.MaxInflight)
	for w := 0; w < cfg.MaxInflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := pathPicker(cfg, o.prefix, cfg.Seed+int64(w))
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(w)<<20))
			for a := range queue {
				st := o.active.Load()
				st.queueWait.Observe(time.Since(a.at))
				path := pick()
				if o.fault.drop(path) {
					continue // arrival consumed, lifecycle suppressed
				}
				cl := pool[next.Add(1)%uint64(len(pool))]
				lifecycle(o.tracer, cl, path, st, rng, cfg.MeanBytes)
				// Coordinated-omission correction: the lifecycle is
				// charged from its *scheduled* arrival, so time spent
				// waiting for a worker counts against the server.
				st.life.Observe(time.Since(a.at))
			}
		}(w)
	}
	// Poisson arrival process: exponential inter-arrival gaps at the
	// current rate, independent of completions (open loop).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		rng := rand.New(rand.NewSource(cfg.Seed))
		nextAt := time.Now()
		for {
			gap := time.Duration(rng.ExpFloat64() / o.rate() * float64(time.Second))
			nextAt = nextAt.Add(gap)
			if d := time.Until(nextAt); d > o.slack {
				select {
				case <-stop:
					return
				case <-time.After(d):
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			select {
			case queue <- arrival{at: nextAt}:
			default:
				o.active.Load().dropped.Add(1)
			}
		}
	}()
	return func() {
		for _, cl := range pool {
			cl.Close()
		}
	}
}

func run(cfg runConfig, prefix string, tracer *trace.Tracer) *result {
	warmStats := newRunStats()
	mainStats := newRunStats()
	// Workers read the active window through an atomic pointer; the
	// warmup -> measurement switch is one store.
	var active atomic.Pointer[runStats]
	active.Store(warmStats)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	startedAt := time.Now()

	var fault *faultCtl
	if cfg.FaultMatch != "" {
		fault = &faultCtl{match: cfg.FaultMatch}
		fault.schedule(cfg, stop, &wg)
	}
	var watcher *healthWatcher
	if cfg.HealthURL != "" {
		watcher = newHealthWatcher(cfg.HealthURL, fault)
		watcher.start(stop, &wg)
	}
	var chaos *chaosCtl
	if cfg.Chaos {
		chaos = newChaosCtl(cfg)
		chaos.start(stop, &wg)
	}

	switch cfg.Mode {
	case "closed":
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl := phiwire.Dial(cfg.Addr, time.Duration(cfg.TimeoutS*float64(time.Second)))
				cl.SetTracer(tracer)
				defer cl.Close()
				pick := pathPicker(cfg, prefix, cfg.Seed+int64(w))
				rng := rand.New(rand.NewSource(cfg.Seed ^ int64(w)<<20))
				for {
					select {
					case <-stop:
						return
					default:
					}
					path := pick()
					if fault.drop(path) {
						// Suppressed: the lifecycle never happens. Brief
						// sleep so a worker stuck on a dark slice does
						// not spin redrawing paths.
						time.Sleep(time.Millisecond)
						continue
					}
					lifecycle(tracer, cl, path, active.Load(), rng, cfg.MeanBytes)
				}
			}(w)
		}
	case "open":
		loop := openLoop{cfg: cfg, prefix: prefix, tracer: tracer, fault: fault, active: &active,
			rate: func() float64 { return cfg.RatePerSec }}
		defer loop.start(stop, &wg)()
	}

	warmup := time.Duration(cfg.WarmupS * float64(time.Second))
	duration := time.Duration(cfg.DurationS * float64(time.Second))
	time.Sleep(warmup)
	active.Store(mainStats)
	measureStart := time.Now()
	time.Sleep(duration)
	measured := time.Since(measureStart)
	close(stop)
	wg.Wait()

	st := mainStats
	ops := map[string]opResult{
		"lookup":       st.lookup.result(),
		"report_start": st.start.result(),
		"report_end":   st.end.result(),
	}
	totalOps := st.lookup.lat.Count() + st.start.lat.Count() + st.end.lat.Count()
	errs, degrades := st.errors()
	res := &result{
		Tool:             "phi-load",
		Config:           cfg,
		StartedAt:        startedAt.UTC().Format(time.RFC3339),
		MeasuredS:        measured.Seconds(),
		Lifecycles:       st.lifecycles.Load(),
		LifecyclesPerSec: float64(st.lifecycles.Load()) / measured.Seconds(),
		OpsPerSec:        float64(totalOps) / measured.Seconds(),
		ErrorsTotal:      errs,
		DegradedTotal:    degrades,
		Dropped:          st.dropped.Load(),
		Ops:              ops,
	}
	if cfg.Mode == "open" {
		ops["queue_wait"] = histResult(st.queueWait.Snapshot())
		ops["lifecycle"] = histResult(st.life.Snapshot())
		res.LatencyAccounting = coAccountingNote
	}
	if fault != nil {
		res.Fault = &faultResult{
			Match:                fault.match,
			InjectedAtS:          cfg.FaultAfterS,
			DurationS:            cfg.FaultForS,
			SuppressedLifecycles: fault.suppressed.Load(),
		}
	}
	if watcher != nil {
		res.Health = watcher.summary()
	}
	if chaos != nil {
		res.Chaos = chaos.summary()
	}
	return res
}
