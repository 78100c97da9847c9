// Command phi-cluster is the Phi context-server daemon — the per-domain
// repository of shared network state of Section 2.2.2 that senders (via
// internal/phiwire.Client) look up at connection start and report to at
// connection end. It runs N phi.Server shards behind a consistent-hash
// ring, fronted by a failover-aware router, served over the phiwire
// protocol on one address. Each shard periodically snapshots its path
// state to disk and is rehydrated from its snapshot on startup, so a
// restart does not zero out the domain's u/q/n estimates.
//
// With -shards 1 it is the standalone, unsharded context server: a
// 1-shard ring has no fallback, so the frontend is a pass-through and
// every lookup answers exactly what a bare phi.Server would
// (TestOneShardDaemonMatchesBareServer).
//
// Usage:
//
//	phi-cluster -listen :7731 -shards 4 -snapshot-dir /var/lib/phi \
//	    -snapshot-interval 30s -path bottleneck=15000000
//
// SIGINT and SIGTERM both stop the daemon in order: the wire server
// drains, every shard writes a final snapshot, a "served" summary is
// logged. Flag problems are all reported at once and exit 2.
//
// Flags:
//
//	-listen addr              frontend listen address (default 127.0.0.1:7731)
//	-shards n                 shard count (default 4; 1 = unsharded)
//	-vnodes n                 virtual nodes per shard on the ring (default 128)
//	-window d                 utilization estimation window (default 10s)
//	-timeout d                per-shard call timeout at the router (default 0:
//	                          in-process shards cannot hang, so no timeout)
//	-down-after n             consecutive failures before a shard is routed
//	                          around (default 3)
//	-cooldown d               how long a down shard is skipped before being
//	                          probed again (default 5s)
//	-replicate                mirror reports to each path's fallback shard so
//	                          failover lands on warm state (default true)
//	-fleet                    run in fleet mode: every shard becomes a
//	                          primary/backup pair kept in sync by report
//	                          mirroring and periodic snapshot transfer, and
//	                          an autonomous remediation controller promotes
//	                          backups over dead primaries, reseeds stale
//	                          backups, and restarts dead members — no
//	                          operator in the loop. Fleet state and chaos
//	                          ops at /debug/fleet on -metrics-addr.
//	                          Implies -health
//	-fleet-poll d             remediation controller poll interval
//	                          (default 1s)
//	-fleet-sync d             periodic backup full-sync interval
//	                          (default 30s)
//	-snapshot-dir dir         snapshot directory; empty disables snapshots
//	-snapshot-interval d      time between snapshots (default 30s; must
//	                          be > 0 with -snapshot-dir)
//	-path name=bitsPerSecond  register a path capacity (repeatable)
//	-policy file              publish this JSON policy (default: built-in)
//	-metrics-addr addr        serve Prometheus metrics at /metrics on this
//	                          address (empty = telemetry off). Covers the
//	                          frontend's routing counters, per-shard call
//	                          latency and breaker state, per-shard server
//	                          metrics, snapshot cycles, and the wire layer.
//	                          Also serves /debug/traces (with -trace),
//	                          /debug/exemplars, /debug/pprof/, and
//	                          /debug/shard?id=N&op=crash|restart|status
//	                          for fault injection.
//	-trace                    record request traces end to end (client
//	                          trace headers are joined; routing, retry,
//	                          failover, and degrade decisions land on
//	                          spans at /debug/traces)
//	-stages                   aggregate every span into per-stage latency
//	                          histograms (server decode/handle, frontend
//	                          routing, shard handle, response write) at
//	                          /debug/stages — "where did the microseconds
//	                          go", live, at any load level. Implies -trace
//	                          A /debug/ index on -metrics-addr lists every
//	                          mounted debug endpoint.
//	-health                   run the live health monitor: streaming
//	                          volume-dip detection and localization over
//	                          the serving path, surfaced at /debug/health
//	                          on -metrics-addr (JSON; ?format=text for a
//	                          summary)
//	-health-bucket d          health rollup bucket width (default 1s)
//	-prof-ring-dir dir        rolling CPU/heap profile ring directory
//	                          (default <tmp>/phi-cluster-profring;
//	                          requires -metrics-addr). With
//	                          -metrics-addr the ring is browsable at
//	                          /debug/prof/ring, captures on demand
//	                          (?op=capture), and health anomalies trigger
//	                          captures automatically; /debug/resources
//	                          snapshots the runtime sampler and wire-level
//	                          syscall/byte attribution
//	-ipfix-addr addr          receive IPFIX exports on this UDP address and
//	                          fold passively reconstructed context (RTT,
//	                          loss, throughput per path) into the cluster
//	                          through the frontend, exactly as cooperative
//	                          reports arrive; state at /debug/ingest on
//	                          -metrics-addr (empty = off)
//	-ipfix-sample n           exporter packet sampling rate, 1-in-N (default 1)
//	-ipfix-window d           per-path aggregation window, stream time
//	                          (default 5s)
//	-passive-weight w         weight of passive reports relative to
//	                          cooperative ones (0 = server default of 1)
//	-max-paths n              bound each shard's per-path state table;
//	                          idle paths are evicted when it fills
//	                          (0 = unbounded)
//	-fresh-ttl d              evidence age beyond which a served lookup
//	                          counts as stale in /debug/context coverage
//	                          (default: the estimation window). The
//	                          context-quality layer — per-source freshness
//	                          histograms, fresh/stale/fallback coverage,
//	                          paired RTT/loss prediction accuracy, and
//	                          passive-vs-active drift — runs whenever
//	                          -metrics-addr is set and serves
//	                          /debug/context there
//	-log-level level          minimum log level: debug|info|warn|error
//	-log-json                 emit logs as JSON lines (default logfmt)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	tlog "repro/internal/trace/log"
)

func main() {
	cfg, errs := parseFlags(os.Args[1:])
	if len(errs) > 0 {
		for _, e := range errs {
			if errors.Is(e, flag.ErrHelp) {
				os.Exit(0)
			}
			fmt.Fprintln(os.Stderr, "phi-cluster:", e)
		}
		os.Exit(2)
	}
	var lopts []tlog.Option
	if cfg.logJSON {
		lopts = append(lopts, tlog.WithJSON())
	}
	logger := tlog.New(os.Stderr, cfg.logLevel, lopts...).Component("phi-cluster")

	// Init systems and the Makefile targets stop the daemon with SIGTERM,
	// an operator at a terminal with SIGINT: both cancel run's context
	// (the signal is the cause, so the shutdown log line names it).
	ctx, cancel := context.WithCancelCause(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { cancel(fmt.Errorf("signal %s", <-sigc)) }()
	if err := run(ctx, cfg, logger, func(addrs) {}); err != nil {
		logger.Fatal("phi-cluster", "err", err)
	}
}
