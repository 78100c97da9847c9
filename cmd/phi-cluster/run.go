package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	tlog "repro/internal/trace/log"
)

// deployment is what run needs from the assembled stack beyond its
// frontend. *cluster.Cluster and *fleet.Fleet both have exactly these
// methods, so the mode is chosen once and everything downstream (wire
// server, ingest, telemetry, snapshots) is mode-agnostic.
type deployment interface {
	Instrument(*telemetry.Registry)
	Trace(*trace.Tracer)
	Quality(*quality.Tracker)
	Health(*health.Monitor)
	LoadSnapshots(dir string) (restored int, err error)
	StartSnapshotters(dir string, interval time.Duration, logf func(string, ...any)) (stop func())
}

// addrs are the addresses run bound ("" = that listener is off).
type addrs struct {
	wire    string // -listen, the phiwire protocol
	metrics string // -metrics-addr: /metrics and every /debug/ endpoint
	ipfix   string // -ipfix-addr (UDP)
}

// run assembles the daemon described by cfg, binds every listener,
// reports the bound addresses through ready, and serves until ctx is
// cancelled or the wire listener fails. It returns only after the
// orderly stop: wire server drained, ingest stopped, controller halted,
// a final snapshot per shard written, the "served" summary logged.
func run(ctx context.Context, cfg config, logger *tlog.Logger, ready func(addrs)) error {
	policy, source := phi.DefaultPolicy(), "built-in"
	if cfg.policyPath != "" {
		f, err := os.Open(cfg.policyPath)
		if err != nil {
			return fmt.Errorf("open policy: %w", err)
		}
		policy, err = phi.LoadPolicy(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load policy %s: %w", cfg.policyPath, err)
		}
		source = cfg.policyPath
	}
	logger.Info("publishing policy", "source", source, "rules", len(policy.Rules))

	cc := cluster.Config{
		Shards: cfg.shards,
		VNodes: cfg.vnodes,
		Clock:  cfg.clock,
		Server: phi.ServerConfig{
			Window:        sim.Time(cfg.window.Nanoseconds()),
			PassiveWeight: cfg.passiveWt,
			MaxPaths:      cfg.maxPaths,
			FreshTTL:      sim.Time(cfg.freshTTL.Nanoseconds()),
		},
		Frontend: cluster.FrontendConfig{
			Timeout:          cfg.timeout,
			DownAfter:        cfg.downAfter,
			Cooldown:         cfg.cooldown,
			ReplicateReports: cfg.replicate,
		},
	}

	// The one mode switch. Fleet mode wraps every shard in a
	// primary/backup pair with the remediation controller on top; plain
	// mode is the bare cluster, which at -shards 1 is one phi.Server
	// behind a pass-through frontend (a 1-shard ring has no fallback).
	var (
		dep   deployment
		fe    *cluster.Frontend
		fl    *fleet.Fleet // fleet mode only; used by the fleet-only block below
		slots shardSlots
	)
	if cfg.fleet {
		fl = fleet.New(fleet.Config{
			Shards: cc.Shards, VNodes: cc.VNodes, Clock: cc.Clock, Server: cc.Server, Frontend: cc.Frontend,
			Controller: fleet.ControllerConfig{Poll: cfg.fleetPoll, SyncEvery: cfg.fleetSync, SnapshotDir: cfg.snapDir},
		})
		dep, fe = fl, fl.Frontend
		// The debug ops target the member's current primary, so the same
		// /debug/shard drill exercises the remediation controller instead
		// of the bare breaker; richer fleet ops live at /debug/fleet.
		slots = shardSlots{
			crash:   func(i int) { fl.Members[i].KillPrimary() },
			restart: func(i int) error { _, err := fl.Members[i].RestartPrimary(""); return err },
			down:    func(i int) bool { return fl.Members[i].Primary().Down() },
		}
	} else {
		cl := cluster.New(cc)
		dep, fe = cl, cl.Frontend
		slots = shardSlots{
			crash:   func(i int) { cl.Shards[i].Crash() },
			restart: func(i int) error { cl.Shards[i].Restart(); return nil },
			down:    func(i int) bool { return cl.Shards[i].Down() },
		}
	}

	srv := phiwire.NewServer(fe, logger.Component("phiwire").Printf)
	if err := srv.SetPolicy(policy); err != nil {
		return fmt.Errorf("publish policy: %w", err)
	}
	// Deferred first so it runs last, after the final snapshots. A daemon
	// that never got as far as listening has nothing to summarize.
	var bound addrs
	defer func() {
		if bound.wire == "" {
			return
		}
		handled, rejected := srv.Stats()
		fs := fe.Stats()
		logger.Info("served", "requests", handled, "rejected", rejected,
			"lookups", fs.Lookups, "reports", fs.Reports, "failovers", fs.Failovers, "degraded", fs.Degraded)
	}()

	var reg *telemetry.Registry // nil keeps every hot path uninstrumented
	if cfg.metricsAddr != "" {
		reg = telemetry.NewRegistry()
		dep.Instrument(reg)
	}
	var tracer *trace.Tracer // nil likewise keeps tracing a no-op
	if cfg.trace {
		tracer = trace.NewTracer(trace.Config{})
		dep.Trace(tracer)
		if cfg.stages {
			tracer.Collector().AttachStages(trace.NewStageAggregator())
		}
	}
	// Context-quality layer: one process-wide tracker woven through every
	// shard's lookup/report path (and the frontend's degraded fallbacks),
	// so coverage and accuracy aggregate cluster-wide and survive crash,
	// restore, and promotion. Served at /debug/context; instrumented runs
	// only, like tracing and health.
	var qtrack *quality.Tracker
	if reg != nil {
		qtrack = quality.New(quality.Config{Registry: reg})
		dep.Quality(qtrack)
	}
	var monitor *health.Monitor // nil likewise keeps health hooks no-ops
	if cfg.health {
		monitor = health.NewMonitor(health.Config{BucketDur: cfg.healthWin, Shards: cfg.shards})
		monitor.SetLogger(logger.Component("health"))
		monitor.SetTracer(tracer)
		monitor.SetMetrics(health.NewMetrics(reg))
		// Frontend feeds ops, shard calls, routing, breakers; in fleet
		// mode the controller also reads the monitor's global status.
		dep.Health(monitor)
		if qtrack != nil {
			// Coverage collapse / accuracy blowout becomes a first-class
			// anomaly with full evidence retention.
			monitor.SetQualitySource(qtrack.HealthCheck)
		}
		defer monitor.Start()()
	}

	if cfg.snapDir != "" {
		if err := os.MkdirAll(cfg.snapDir, 0o755); err != nil {
			return fmt.Errorf("snapshot dir: %w", err)
		}
		restored, err := dep.LoadSnapshots(cfg.snapDir)
		if err != nil {
			return fmt.Errorf("restore snapshots: %w", err)
		}
		if restored > 0 {
			logger.Info("rehydrated shards from snapshots", "restored", restored, "shards", cfg.shards, "dir", cfg.snapDir)
		}
		// stop takes the final snapshot per shard; deferred here, it runs
		// after everything that can still write a report has stopped.
		defer dep.StartSnapshotters(cfg.snapDir, cfg.snapEvery, logger.Component("snapshot").Printf)()
		logger.Info("snapshotting", "interval", cfg.snapEvery, "dir", cfg.snapDir)
	}

	for _, p := range cfg.paths {
		fe.RegisterPath(phi.PathKey(p.name), p.capacity)
		logger.Info("registered path", "path", p.name, "capacity_bps", p.capacity)
	}

	// Each optional layer appends its own debug endpoint, so the /debug/
	// index lists one exactly when the layer behind it is running.
	var endpoints []telemetry.Endpoint

	// The one fleet-only block.
	if fl != nil {
		fl.SetLogger(logger)
		defer fl.Start()()
		logger.Info("fleet controller up", "poll", cfg.fleetPoll, "sync", cfg.fleetSync, "members", cfg.shards)
		endpoints = append(endpoints, telemetry.Endpoint{Path: "/debug/fleet", Handler: fl.Handler(),
			Desc: "fleet members, remediation audit, chaos ops (-fleet)"})
	}

	// Passive ingest: an IPFIX collector feeding reconstructed context
	// through the frontend, so passive reports shard, replicate, and
	// fail over exactly like cooperative ones.
	if cfg.ipfixAddr != "" {
		p, err := ingest.New(ingest.Config{
			Sink:         fe,
			SampleN:      cfg.ipfixSample,
			WindowMillis: uint64(cfg.ipfixWindow.Milliseconds()),
			Metrics:      ingest.NewMetrics(reg, nil),
		})
		if err != nil {
			return fmt.Errorf("ipfix ingest: %w", err)
		}
		defer p.Stop()
		col, err := ipfix.NewRawCollector(cfg.ipfixAddr, p.Datagram)
		if err != nil {
			return fmt.Errorf("ipfix collector %s: %w", cfg.ipfixAddr, err)
		}
		// Runs before p.Stop: Datagram must not be called after Stop.
		defer col.Close()
		bound.ipfix = col.Addr()
		endpoints = append(endpoints, telemetry.Endpoint{Path: "/debug/ingest", Handler: ingest.Handler(p, col),
			Desc: "passive IPFIX ingest: per-path reconstructed state (-ipfix-addr)"})
		logger.Info("ipfix ingest up", "addr", bound.ipfix,
			"sample", cfg.ipfixSample, "window", cfg.ipfixWindow.String())
	}

	srv.SetMetrics(phiwire.NewServerMetrics(reg))
	srv.SetTracer(tracer)
	srv.SetHealth(monitor)
	if monitor != nil {
		endpoints = append(endpoints, telemetry.Endpoint{Path: "/debug/health", Handler: monitor.Handler(),
			Desc: "live health monitor: status, anomalies, localization (-health)"})
	}
	if cfg.metricsAddr != "" {
		// Resource observatory: wire-level syscall/byte attribution on the
		// serving path, a runtime sampler snapshotting it at
		// /debug/resources, and a rolling profile ring that health
		// anomalies trigger into.
		wire := obs.NewWireCounters()
		srv.SetWire(wire)
		sampler := obs.NewSampler(obs.SamplerConfig{Registry: reg})
		sampler.SetWire("server", wire)
		sampler.AddCollect(wire.Publish(reg, "phiwire_server_wire"))
		defer sampler.Start()()
		ringDir := cfg.profRing
		if ringDir == "" {
			ringDir = filepath.Join(os.TempDir(), "phi-cluster-profring")
		}
		ring, err := obs.NewProfileRing(obs.RingConfig{Dir: ringDir, Logf: logger.Component("profring").Printf})
		if err != nil {
			return fmt.Errorf("profile ring %s: %w", ringDir, err)
		}
		monitor.SetProfileTrigger(ring.TriggerAsync)
		endpoints = append(endpoints,
			telemetry.Endpoint{Path: "/debug/resources", Handler: sampler.Handler(),
				Desc: "runtime + wire resource attribution snapshot"},
			telemetry.Endpoint{Path: "/debug/prof/ring", Handler: ring.Handler(),
				Desc: "rolling CPU/heap profile ring (?op=capture to trigger)"},
			telemetry.Endpoint{Path: "/debug/traces", Handler: tracer.Collector().Handler(),
				Desc: "retained request traces: slowest, errors, sampled (-trace)"},
			telemetry.Endpoint{Path: "/debug/stages", Handler: tracer.Stages().Handler(),
				Desc: "per-stage latency decomposition of the serving path (-stages)"},
			telemetry.Endpoint{Path: "/debug/shard", Handler: shardDebugHandler(cfg.shards, slots, logger),
				Desc: "shard fault injection: ?id=N&op=crash|restart|status"},
			telemetry.Endpoint{Path: "/debug/context", Handler: qtrack.Handler(),
				Desc: "context quality: freshness, coverage, predictive accuracy"})
		ms, err := telemetry.Serve(cfg.metricsAddr, reg, endpoints...)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer ms.Close()
		bound.metrics = ms.Addr().String()
		logger.Info("metrics server up", "addr", bound.metrics, "tracing", cfg.trace, "health", cfg.health)
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	bound.wire = ln.Addr().String()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening", "addr", bound.wire, "shards", cfg.shards, "vnodes", cfg.vnodes)
	ready(bound)

	// Either way out, the wire server drains first; the deferred teardown
	// above then runs in reverse order of set-up.
	select {
	case <-ctx.Done():
		logger.Info("shutting down", "cause", context.Cause(ctx).Error())
		srv.Close()
		<-errc // Serve has returned: no goroutine of ours outlives run
		return nil
	case err := <-errc:
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	}
}

// shardSlots adapts ring slot i — a bare shard, or a fleet member's
// current primary — to the three things /debug/shard does to it.
type shardSlots struct {
	crash   func(i int)
	restart func(i int) error
	down    func(i int) bool
}

// shardDebugHandler serves /debug/shard?id=N&op=crash|restart|status —
// runtime fault injection for failover drills: crash a shard mid-load,
// watch traces at /debug/traces pick up retry/failover notes, restart
// it, watch the breaker close.
func shardDebugHandler(n int, slots shardSlots, logger *tlog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.URL.Query().Get("id"))
		if err != nil || id < 0 || id >= n {
			http.Error(w, fmt.Sprintf("bad shard id (want 0..%d)", n-1), http.StatusBadRequest)
			return
		}
		switch op := r.URL.Query().Get("op"); op {
		case "crash":
			slots.crash(id)
			logger.Warn("shard crashed by debug request", "shard", id)
		case "restart":
			if err := slots.restart(id); err != nil {
				logger.Warn("debug restart", "shard", id, "err", err)
			}
			logger.Info("shard restarted by debug request", "shard", id)
		case "", "status":
		default:
			http.Error(w, "op must be crash, restart, or status", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"shard\":%d,\"down\":%v}\n", id, slots.down(id))
	})
}
