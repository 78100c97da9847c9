package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	tlog "repro/internal/trace/log"
)

// config is everything run needs: one field per flag (named after it),
// with the implications already applied (-fleet turns -health on,
// -stages turns -trace on), so run never re-derives them.
type config struct {
	listen, metricsAddr, ipfixAddr                   string
	snapDir, policyPath, profRing                    string
	shards, vnodes, downAfter, ipfixSample, maxPaths int
	window, timeout, cooldown, fleetPoll, fleetSync  time.Duration
	snapEvery, healthWin, ipfixWindow, freshTTL      time.Duration
	replicate, fleet, trace, stages, health, logJSON bool
	passiveWt                                        float64
	logLevel                                         tlog.Level
	paths                                            pathFlags

	// clock feeds every shard's estimators. Not a flag: parseFlags sets
	// the wall clock, tests inject their own.
	clock func() sim.Time
}

// parseFlags parses args (without the program name) and checks every
// knob up front, returning all problems at once so a misconfigured
// daemon dies before binding anything. A flag-syntax error (or -h) is
// returned alone: nothing after it can be trusted.
func parseFlags(args []string) (config, []error) {
	var c config
	fs := flag.NewFlagSet("phi-cluster", flag.ContinueOnError)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:7731", "listen address")
	fs.IntVar(&c.shards, "shards", 4, "shard count (1 = a single unsharded context server)")
	fs.IntVar(&c.vnodes, "vnodes", cluster.DefaultVNodes, "virtual nodes per shard")
	fs.DurationVar(&c.window, "window", 10*time.Second, "utilization estimation window")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-shard call timeout (0 = none)")
	fs.IntVar(&c.downAfter, "down-after", 3, "consecutive failures before a shard is routed around")
	fs.DurationVar(&c.cooldown, "cooldown", 5*time.Second, "down-shard reprobe cooldown")
	fs.BoolVar(&c.replicate, "replicate", true, "mirror reports to the fallback shard")
	fs.BoolVar(&c.fleet, "fleet", false, "run replicated shards with the autonomous remediation controller (view at /debug/fleet on -metrics-addr; implies -health)")
	fs.DurationVar(&c.fleetPoll, "fleet-poll", time.Second, "fleet: remediation controller poll interval")
	fs.DurationVar(&c.fleetSync, "fleet-sync", 30*time.Second, "fleet: periodic backup full-sync interval")
	fs.StringVar(&c.snapDir, "snapshot-dir", "", "snapshot directory (empty = snapshots off)")
	fs.DurationVar(&c.snapEvery, "snapshot-interval", 30*time.Second, "time between snapshots")
	fs.StringVar(&c.policyPath, "policy", "", "publish this JSON policy file to clients (default: the built-in policy)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus metrics on this address (empty = telemetry off)")
	fs.BoolVar(&c.trace, "trace", false, "record request traces (view at /debug/traces on -metrics-addr)")
	fs.BoolVar(&c.stages, "stages", false, "aggregate per-stage latency histograms from the span stream (view at /debug/stages on -metrics-addr; implies -trace)")
	fs.BoolVar(&c.health, "health", false, "run the live health monitor (view at /debug/health on -metrics-addr)")
	fs.DurationVar(&c.healthWin, "health-bucket", time.Second, "health monitor rollup bucket width")
	fs.StringVar(&c.profRing, "prof-ring-dir", "", "rolling CPU/heap profile ring directory (default: <tmp>/phi-cluster-profring; requires -metrics-addr)")
	fs.StringVar(&c.ipfixAddr, "ipfix-addr", "", "receive IPFIX exports on this UDP address and ingest passive context (empty = off)")
	fs.IntVar(&c.ipfixSample, "ipfix-sample", 1, "ipfix: exporter packet sampling rate (1-in-N)")
	fs.DurationVar(&c.ipfixWindow, "ipfix-window", 5*time.Second, "ipfix: per-path aggregation window (stream time)")
	fs.Float64Var(&c.passiveWt, "passive-weight", 0, "weight of passive (IPFIX-inferred) reports relative to cooperative ones (0 = server default of 1)")
	fs.IntVar(&c.maxPaths, "max-paths", 0, "bound each shard's per-path state table, evicting idle paths (0 = unbounded)")
	fs.DurationVar(&c.freshTTL, "fresh-ttl", 0, "age beyond which context evidence counts as stale at lookup (0 = the estimation window)")
	logLevel := fs.String("log-level", "info", "minimum log level (debug|info|warn|error)")
	fs.BoolVar(&c.logJSON, "log-json", false, "emit logs as JSON lines (default logfmt)")
	fs.Var(&c.paths, "path", "register a path capacity as name=bitsPerSecond (repeatable)")
	if err := fs.Parse(args); err != nil {
		return c, []error{err}
	}

	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if fs.NArg() > 0 {
		fail("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	var err error
	if c.logLevel, err = tlog.ParseLevel(*logLevel); err != nil {
		fail("-log-level: %v", err)
	}
	if c.shards < 1 {
		fail("-shards must be >= 1 (got %d)", c.shards)
	}
	if c.snapDir != "" && c.snapEvery <= 0 {
		fail("-snapshot-interval must be > 0 with -snapshot-dir (got %v)", c.snapEvery)
	}
	if c.profRing != "" && c.metricsAddr == "" {
		fail("-prof-ring-dir requires -metrics-addr (the ring is served and triggered there)")
	}

	// The fleet controller reads the monitor's status, so -fleet runs one.
	c.health = c.health || c.fleet
	c.trace = c.trace || c.stages // stages aggregate the span stream
	c.clock = func() sim.Time { return sim.Time(time.Now().UnixNano()) }
	return c, errs
}

// pathFlags collects repeated -path name=capacity flags.
type pathFlags []struct {
	name     string
	capacity int64
}

func (p *pathFlags) String() string {
	var parts []string
	for _, e := range *p {
		parts = append(parts, fmt.Sprintf("%s=%d", e.name, e.capacity))
	}
	return strings.Join(parts, ",")
}

func (p *pathFlags) Set(v string) error {
	name, capStr, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=bitsPerSecond, got %q", v)
	}
	c, err := strconv.ParseInt(capStr, 10, 64)
	if err != nil || c <= 0 {
		return fmt.Errorf("bad capacity in %q", v)
	}
	*p = append(*p, struct {
		name     string
		capacity int64
	}{name, c})
	return nil
}
