# Phi — reproduction of "Rethinking Networking for 'Five Computers'"
# (HotNets 2018). Standard targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet race bench-module cover test test-short bench bench-smoke fuzz-smoke alloc-gate saturate saturate-smoke bench-diff ingest-demo trace-demo health-demo chaos-demo experiments experiments-full experiments-compare golden-manifest examples clean

all: build vet race bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed on the files above" && exit 1)

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full test suite under the race detector (includes the phi/cluster
# concurrency stress tests, which only bite with -race on).
race:
	$(GO) test -race ./...

# bench/ (the BENCHMARK.json harness) is its own module, so the root
# ./... targets above never compile it: vet and test it explicitly, or an
# internal API change can break the benchmark silently. Offline — its only
# requirement is `replace repro => ../`.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Coverage summary across every package.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Microbenchmarks, for exploring in-process hot paths (BENCHMARK.json,
# run by bench/run.sh, is what decides whether a change is faster): the
# per-figure harnesses in the root package plus the substrate benches —
# telemetry record path, phiwire encode/decode and handler, phi.Server
# lookup/report, the passive-ingest pipeline (PipelineIngest: records/s,
# ns/record) and the simulator probe (ProbeOverhead: detached vs attached).
bench:
	$(GO) test -bench=. -benchmem . ./internal/telemetry ./internal/phiwire ./internal/phi ./internal/ingest ./internal/sim

# Find the ceiling (DESIGN.md §14): ramp the offered rate against a
# local 4-shard cluster until the online knee detector confirms the p99
# knee, then capture CPU/heap profiles at the knee and the server's
# per-stage latency decomposition. Writes BENCH_saturation.json (with
# per-step allocs/op and frames-per-syscall efficiency attribution) plus
# results/BENCH_saturation_{cpu,heap}.pprof. Fixed seed so reruns are
# comparable. Add -trace to the phi-load line for the client-side stage
# decomposition too (it costs roughly half the measured ceiling on one
# core, so the committed baseline runs without it).
saturate:
	$(GO) build -o /tmp/phi-sat-cluster ./cmd/phi-cluster
	$(GO) build -o /tmp/phi-sat-load ./cmd/phi-load
	/tmp/phi-sat-cluster -listen 127.0.0.1:7731 -shards 4 \
		-metrics-addr 127.0.0.1:7732 -stages & \
	CLUSTER=$$!; trap 'kill $$CLUSTER' EXIT; sleep 1; \
	/tmp/phi-sat-load -addr 127.0.0.1:7731 -mode saturate \
		-sat-start 2000 -sat-factor 1.5 -sat-step 5s -sat-settle 1s \
		-paths 64 -skew zipf -seed 42 \
		-debug-url http://127.0.0.1:7732 -profile-dur 5s \
		-profile-prefix results/BENCH_saturation \
		-out BENCH_saturation.json

# CI-scale saturation smoke (~20s): a short coarse ramp that must still
# find a knee; the result lands in /tmp for bench-diff to gate. Same
# scrapes as `saturate` minus the knee profiles (-profile-dur 0).
saturate-smoke:
	$(GO) build -o /tmp/phi-sat-cluster ./cmd/phi-cluster
	$(GO) build -o /tmp/phi-sat-load ./cmd/phi-load
	/tmp/phi-sat-cluster -listen 127.0.0.1:7731 -shards 4 \
		-metrics-addr 127.0.0.1:7732 -stages & \
	CLUSTER=$$!; trap 'kill $$CLUSTER' EXIT; sleep 1; \
	/tmp/phi-sat-load -addr 127.0.0.1:7731 -mode saturate \
		-sat-start 2000 -sat-factor 2.0 -sat-step 2s -sat-settle 500ms \
		-paths 64 -skew zipf -seed 42 \
		-debug-url http://127.0.0.1:7732 -profile-dur 0 \
		-out /tmp/phi_saturation_smoke.json

# Gate a candidate result against the committed baseline. Smoke runs on
# shared CI machines wobble, so the default tolerances are generous; the
# floor that really matters is -min-rate: the knee must stay above the
# old fixed-rate pin of 2000 lifecycles/s, and a knee must exist at all.
#   make bench-diff NEW=/tmp/phi_saturation_smoke.json
NEW ?= /tmp/phi_saturation_smoke.json
bench-diff:
	$(GO) run ./cmd/phi-bench-diff -old BENCH_saturation.json -new $(NEW) \
		-tol-rate 0.6 -tol-latency 4.0 -tol-eff 0.5 -tol-quality 0.5 \
		-require-knee -min-rate 2000

# Zero-alloc regression gate: the pinned allocs/op tests for the
# phi.Server hot path, the phiwire codec and the frontend's routed call
# (TestAllocs* in internal/phi, internal/phiwire and internal/cluster).
# Fails the moment a change makes Lookup allocate, grows a codec's
# per-frame allocation count, or makes routing allocate per call.
alloc-gate:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/phi ./internal/phiwire ./internal/cluster

# One benchmark iteration per function: catches benchmarks that no
# longer compile or crash, without paying for real measurement (CI runs
# this on every push).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Short fuzzing burst over the phiwire and ipfix codec fuzzers (CI runs
# this on every push; crank -fuzztime locally for a real campaign).
fuzz-smoke:
	for target in FuzzHandle FuzzDecodeReportEnd FuzzReadFrame FuzzFrameStream FuzzReadString; do \
		$(GO) test -run=NONE -fuzz="^$$target$$" -fuzztime=10s ./internal/phiwire || exit 1; \
	done
	$(GO) test -run=NONE -fuzz='^FuzzDecodeIPFIX$$' -fuzztime=10s ./internal/ipfix

# Passive-ingest demo: an unsharded context server (phi-cluster
# -shards 1) with the IPFIX collector on, a 5s synthetic export flood (no
# cooperative senders at all), then the reconstructed per-path state at
# /debug/ingest — the context server learns RTT, loss, and throughput per
# path purely from the exports.
ingest-demo:
	$(GO) build -o /tmp/phi-ingest-cluster ./cmd/phi-cluster
	$(GO) build -o /tmp/phi-ingest-load ./cmd/phi-load
	/tmp/phi-ingest-cluster -listen 127.0.0.1:7731 -shards 1 \
		-metrics-addr 127.0.0.1:7732 \
		-ipfix-addr 127.0.0.1:4739 -ipfix-window 1s & \
	CLUSTER=$$!; trap 'kill $$CLUSTER' EXIT; sleep 1; \
	/tmp/phi-ingest-load -mode ipfix -ipfix-addr 127.0.0.1:4739 \
		-duration 5s -ipfix-rate 500000 -seed 42 -out /tmp/phi-ingest-demo.json; \
	sleep 1; \
	echo "--- /debug/ingest after the flood ---"; \
	curl -s 'http://127.0.0.1:7732/debug/ingest?format=text'; \
	echo "--- passive reports folded into the server ---"; \
	curl -s http://127.0.0.1:7732/metrics | grep -E 'phi_server_passive|phi_ingest_reports'

# End-to-end tracing demo: a traced 4-shard cluster under 10s of traced
# load, a mid-run shard crash, then the retained traces — the failover
# shows up as error-class traces whose spans carry failover/breaker
# notes. Inspect further at http://127.0.0.1:7732/debug/traces.
trace-demo:
	$(GO) build -o /tmp/phi-demo-cluster ./cmd/phi-cluster
	$(GO) build -o /tmp/phi-demo-load ./cmd/phi-load
	/tmp/phi-demo-cluster -listen 127.0.0.1:7731 -shards 4 \
		-metrics-addr 127.0.0.1:7732 -trace & \
	CLUSTER=$$!; trap 'kill $$CLUSTER' EXIT; sleep 1; \
	/tmp/phi-demo-load -addr 127.0.0.1:7731 -mode open -rate 2000 \
		-duration 10s -warmup 1s -paths 64 -skew zipf -seed 42 -trace & \
	LOAD=$$!; sleep 4; \
	echo "--- crashing shard 0 mid-load ---"; \
	curl -s 'http://127.0.0.1:7732/debug/shard?id=0&op=crash'; sleep 2; \
	curl -s 'http://127.0.0.1:7732/debug/shard?id=0&op=restart'; \
	wait $$LOAD; \
	echo "--- error-class traces (failover story) ---"; \
	curl -s 'http://127.0.0.1:7732/debug/traces?view=errors&format=text' | head -40; \
	echo "--- slowest traces ---"; \
	curl -s 'http://127.0.0.1:7732/debug/traces?view=slowest&format=text' | head -20

# Live health-monitoring demo (DESIGN.md §10): a 4-shard cluster with
# the health monitor on, grid-structured load, and a mid-run fault that
# silences one service/ISP/metro slice of the workload — the Figure 5
# outage story played live. The server detects the volume dip, localizes
# it, and surfaces it at /debug/health; phi-load polls that endpoint and
# reports detection and time-to-detect in its JSON summary. The fault
# lands after the monitor's warmup (10 x 1s buckets, so the baseline is
# established) and past its diagnosis period (20 buckets, so
# localization has the history it needs).
health-demo:
	$(GO) build -o /tmp/phi-health-cluster ./cmd/phi-cluster
	$(GO) build -o /tmp/phi-health-load ./cmd/phi-load
	/tmp/phi-health-cluster -listen 127.0.0.1:7731 -shards 4 \
		-metrics-addr 127.0.0.1:7732 -health & \
	CLUSTER=$$!; trap 'kill $$CLUSTER' EXIT; sleep 1; \
	/tmp/phi-health-load -addr 127.0.0.1:7731 -mode open -rate 2000 \
		-duration 40s -warmup 2s -paths 64 -grid 1x4x4 -seed 42 \
		-fault-match isp-1/metro-1 -fault-after 24s -fault-for 12s \
		-debug-url http://127.0.0.1:7732 \
		-out /tmp/phi-health-demo.json; \
	echo "--- /debug/health after the run ---"; \
	curl -s 'http://127.0.0.1:7732/debug/health?format=text'; \
	echo "--- phi-load fault injection and detection summary ---"; \
	sed -n '/"fault":/,$$p' /tmp/phi-health-demo.json

# Fleet chaos demo (DESIGN.md §13): a replicated 4-shard fleet with the
# remediation controller on, open-loop load, and a kill schedule driven
# over the wire — phi-load kills a primary through /debug/fleet every
# few seconds, waits for the controller alone to repair it, and exits
# non-zero unless every kill auto-remediated inside -chaos-bound with
# zero lost lifecycles. The /debug/fleet dump afterwards shows the
# promotions and the controller's audit trail.
chaos-demo:
	$(GO) build -o /tmp/phi-chaos-cluster ./cmd/phi-cluster
	$(GO) build -o /tmp/phi-chaos-load ./cmd/phi-load
	/tmp/phi-chaos-cluster -listen 127.0.0.1:7731 -shards 4 -fleet \
		-fleet-poll 100ms -fleet-sync 2s -metrics-addr 127.0.0.1:7732 & \
	CLUSTER=$$!; trap 'kill $$CLUSTER' EXIT; sleep 1; \
	/tmp/phi-chaos-load -addr 127.0.0.1:7731 -mode open -rate 1000 \
		-duration 20s -warmup 1s -paths 64 -skew zipf -seed 42 \
		-chaos -debug-url http://127.0.0.1:7732 \
		-chaos-first 3s -chaos-every 3s -chaos-kills 3 -chaos-bound 5s \
		-out /tmp/phi-chaos-demo.json; \
	echo "--- /debug/fleet after the run ---"; \
	curl -s 'http://127.0.0.1:7732/debug/fleet?format=text'; \
	echo "--- chaos schedule summary ---"; \
	sed -n '/"chaos":/,$$p' /tmp/phi-chaos-demo.json

# Regenerate every table and figure (coarse ~ minutes). Each run also
# writes results/manifest_all.json; watch a run live with
#   go run ./cmd/phi-experiments -run all -status-addr :9100
# and curl http://localhost:9100/debug/experiments?format=text
experiments:
	$(GO) run ./cmd/phi-experiments -run all

# Paper-scale configuration (full Table 2 grid, n = 8; slow).
experiments-full:
	$(GO) run ./cmd/phi-experiments -run all -full

# Golden-manifest subset: the fast experiments CI re-runs on every push.
GOLDEN_RUN = table1,table2,fig2a,fig5,sharing
GOLDEN_MANIFEST = results/manifest_golden_coarse.json

# Re-record the committed golden manifest (after an intentional change
# to simulation results, review the metric diff before committing).
golden-manifest:
	$(GO) run ./cmd/phi-experiments -run $(GOLDEN_RUN) -manifest $(GOLDEN_MANIFEST)

# Reproducibility check: re-run the golden configuration and fail if any
# recorded metric drifts beyond tolerance (CI runs this on every push).
experiments-compare:
	$(GO) run ./cmd/phi-experiments -compare $(GOLDEN_MANIFEST)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cdnstream
	$(GO) run ./examples/outage
	$(GO) run ./examples/forecast
	$(GO) run ./examples/wirephi
	$(GO) run ./examples/interdc

clean:
	$(GO) clean ./...
	rm -f coverage.out
