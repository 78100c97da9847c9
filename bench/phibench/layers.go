package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/phiwire"
)

// The traced invocation is a handful of shorter runs of one workload and
// seed in one process, each on a stack of its own:
//
//	ref     the workload as the end-to-end run has it, untraced
//	traced  the same with the decorators at the seams
//	direct  (socket workloads) untraced, workers calling the frontend
//	plain   (observed workloads) untraced, observers left off
//
// plus a replay on a bare phi.Server and two runs against a backend that
// does nothing. Layer times come from traced; the differences between
// the others give what a seam cannot time from outside.
const (
	refSegments    = 8
	tracedSegments = 10
	directSegments = 4
	subWarmup      = 1500 * time.Millisecond
)

// counters is every count the stack keeps that a layer metric is made
// of, read at both edges of the measured window.
type counters struct {
	srvWire, cliWire obs.WireSnapshot
	frontend         cluster.FrontendStats
	primaryReports   uint64 // reports written to lookup-serving shards
	backupReports    uint64 // reports written again to fleet backups
	mirrorErrors     uint64
	replayDropped    uint64
}

func (st *stack) counters() counters {
	c := counters{
		srvWire:  st.srvWire.Snapshot(),
		cliWire:  st.cliWire.Snapshot(),
		frontend: st.frontendStats(),
	}
	for _, sh := range st.primaries() {
		_, r := sh.Stats()
		c.primaryReports += r
	}
	if st.fleet != nil {
		for _, m := range st.fleet.Members {
			ms := m.Status()
			c.backupReports += ms.Mirrored + ms.Replayed
			c.mirrorErrors += ms.MirrorErrors
			c.replayDropped += ms.ReplayDropped
		}
	}
	return c
}

func (c counters) sub(p counters) counters {
	c.srvWire = c.srvWire.Sub(p.srvWire)
	c.cliWire = c.cliWire.Sub(p.cliWire)
	c.frontend.Failovers -= p.frontend.Failovers
	c.frontend.Degraded -= p.frontend.Degraded
	c.primaryReports -= p.primaryReports
	c.backupReports -= p.backupReports
	c.mirrorErrors -= p.mirrorErrors
	c.replayDropped -= p.replayDropped
	return c
}

// layerMetrics names every per-layer metric and its unit, in the order
// of BENCHMARK.json's per_layer list.
var layerMetrics = []struct{ name, unit string }{
	{"lifecycles_per_s", "1/s"},
	{"lookup_p50_us", "us"},
	{"lookup_p99_us", "us"},
	{"cpu_us_per_lifecycle", "us"},
	{"phiwire.self_us_per_op", "us"},
	{"phiwire.syscalls_per_lifecycle", "count"},
	{"phiwire.read_syscalls_per_frame", "count"},
	{"phiwire.write_syscalls_per_frame", "count"},
	{"phiwire.bytes_per_lifecycle", "B"},
	{"phiwire.allocs_per_op", "count"},
	{"phiwire.lookup_p999_us", "us"},
	{"phiwire.errors", "count"},
	{"cluster.frontend_self_us_per_op", "us"},
	{"cluster.conn_calls_per_op", "count"},
	{"cluster.failovers", "count"},
	{"cluster.degraded", "count"},
	{"fleet.member_us_per_call", "us"},
	{"fleet.server_writes_per_report", "count"},
	{"fleet.mirror_errors", "count"},
	{"fleet.replay_dropped", "count"},
	{"phi.server_us_per_lookup", "us"},
	{"phi.server_us_per_report", "us"},
	{"phi.window_entries_hot", "count"},
	{"phi.paths", "count"},
	{"phi.bytes_per_path", "B"},
	{"phi.evicted_paths", "count"},
	{"observers.cpu_us_per_lifecycle_delta", "us"},
	{"observers.lookup_p50_us_delta", "us"},
	{"observers.allocs_per_lifecycle_delta", "count"},
	{"bench.gen_ns_per_lifecycle", "ns"},
	{"bench.noop_wire_lifecycles_per_s", "1/s"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.segment_spread_frac", "ratio"},
	{"bench.calib_mops", "1/us"},
	{"bench.steal_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// calibrator runs a fixed arithmetic kernel and keeps its speed. The
// kernel touches no memory and takes no lock, so when it slows down
// with the benchmark the host slowed down, not the program.
type calibrator struct{ mops []float64 }

var calibSink uint64

func (c *calibrator) run() {
	const n = 1 << 21
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t)
	calibSink += x
	c.mops = append(c.mops, n/d.Seconds()/1e6)
}

func runTraced(sp spec, seed int64, segDur time.Duration) result {
	out := result{Metrics: map[string]metric{}}
	fail := func(what string, err error) result {
		fmt.Printf("FAILED seed=%d: %s: %v\n", seed, what, err)
		out.Attempted++
		out.Failed++
		return out
	}
	base := runConfig{spec: sp, seed: seed, segDur: segDur, warmup: subWarmup, setups: 1}
	// sub runs one of the runs above and folds its operations into out.
	sub := func(what string, cfg runConfig) (*runResult, error) {
		runtime.GC()
		r, err := run(cfg)
		if r != nil && r.st != nil {
			r.st.close()
			r.st = nil // let the next run's heap start from nothing
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("--- %s: %d segments\n", what, cfg.segments)
		r.print()
		out.Attempted += r.attempted + uint64(r.verified)
		out.Failed += r.failed
		return r, nil
	}

	refCfg := base
	refCfg.segments = refSegments
	ref, err := sub("ref", refCfg)
	if err != nil {
		return fail("ref run", err)
	}

	// One kept lifecycle in spanSampleEvery, at most this many per worker.
	rec := newRecorder(1 << 14)
	calib := &calibrator{}
	trCfg := base
	trCfg.segments, trCfg.rec, trCfg.verify, trCfg.between = tracedSegments, rec, true, calib.run
	var hot, states int
	trCfg.inspect = func(st *stack) { hot, states = inspectState(st) }
	tr, err := sub("traced", trCfg)
	if err != nil {
		return fail("traced run", err)
	}
	spansPath := filepath.Join("bench", "out", sp.name+".spans.json")
	nspans, err := rec.writeSpans(spansPath)
	if err != nil {
		return fail("write spans", err)
	}
	fmt.Printf("spans: kept %d (1 lifecycle in %d) in %s\n", nspans, spanSampleEvery, spansPath)

	var direct, plain *runResult
	if sp.wire {
		cfg := base
		cfg.segments, cfg.direct = directSegments, true
		if direct, err = sub("direct", cfg); err != nil {
			return fail("direct run", err)
		}
	}
	if sp.observed {
		cfg := base
		cfg.segments, cfg.plain = refSegments, true
		if plain, err = sub("plain", cfg); err != nil {
			return fail("plain run", err)
		}
	}
	runtime.GC()
	lookupUs, reportUs, err := bareReplay(sp, seed)
	if err != nil {
		return fail("bare replay", err)
	}
	genNs, noopWire, err := noopRuns(sp, seed)
	if err != nil {
		return fail("no-op backend", err)
	}

	// Every per-layer metric is printed on every workload; one that does
	// not apply — phiwire's without a socket, the observers' without
	// observers — stays zero.
	for _, lm := range layerMetrics {
		out.Metrics[lm.name] = metric{0, lm.unit}
	}
	set := func(name string, v float64) {
		m, ok := out.Metrics[name]
		if !ok {
			panic("phibench: " + name + " is not in layerMetrics")
		}
		m.Value = v
		out.Metrics[name] = m
	}
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	client, backend, conn := rec.sums()
	c := tr.window
	lifecycles := float64(tr.windowLifecycles)
	reports := lifecycles * float64(sp.reportsPerLifecycle())

	for name, m := range ungatedTimings(ref) {
		set(name, m.Value)
	}

	if sp.wire {
		set("phiwire.self_us_per_op", per(float64(client.ns-backend.ns), float64(client.calls))/1e3)
		reads := c.cliWire.ReadSyscalls + c.srvWire.ReadSyscalls
		writes := c.cliWire.WriteSyscalls + c.srvWire.WriteSyscalls
		set("phiwire.syscalls_per_lifecycle", per(float64(reads+writes), lifecycles))
		set("phiwire.read_syscalls_per_frame", per(float64(reads), float64(c.cliWire.FramesRead+c.srvWire.FramesRead)))
		set("phiwire.write_syscalls_per_frame", per(float64(writes), float64(c.cliWire.FramesWritten+c.srvWire.FramesWritten)))
		set("phiwire.bytes_per_lifecycle", per(float64(c.cliWire.BytesWritten+c.srvWire.BytesWritten), lifecycles))
		set("phiwire.allocs_per_op", (ref.allocsPerLifecycle-direct.allocsPerLifecycle)/float64(sp.opsPerLifecycle()))
		set("phiwire.lookup_p999_us", ref.lookup.quantile(0.999)/1e3)
	}
	set("phiwire.errors", float64(ref.failed+tr.failed))

	set("cluster.frontend_self_us_per_op", per(float64(backend.ns-conn.ns), float64(backend.calls))/1e3)
	set("cluster.conn_calls_per_op", per(float64(conn.calls), float64(backend.calls)))
	set("cluster.failovers", float64(c.frontend.Failovers))
	set("cluster.degraded", float64(c.frontend.Degraded))

	set("fleet.member_us_per_call", per(float64(conn.ns), float64(conn.calls))/1e3)
	set("fleet.server_writes_per_report", per(float64(c.primaryReports+c.backupReports), reports))
	set("fleet.mirror_errors", float64(c.mirrorErrors))
	set("fleet.replay_dropped", float64(c.replayDropped))

	set("phi.server_us_per_lookup", lookupUs)
	set("phi.server_us_per_report", reportUs)
	set("phi.window_entries_hot", float64(hot))
	set("phi.paths", float64(states))
	set("phi.bytes_per_path", per(ref.liveHeapMB*(1<<20), float64(states)))
	copies := 2 // owner and ring fallback
	if sp.fleet {
		copies = 4 // and a backup of each
	}
	set("phi.evicted_paths", float64(copies*sp.paths-states))

	if plain != nil {
		set("observers.cpu_us_per_lifecycle_delta", ref.cpuUsPerLifecycle()-plain.cpuUsPerLifecycle())
		set("observers.lookup_p50_us_delta", ref.lookupP50us()-plain.lookupP50us())
		set("observers.allocs_per_lifecycle_delta", ref.allocsPerLifecycle-plain.allocsPerLifecycle)
	}

	set("bench.gen_ns_per_lifecycle", genNs)
	set("bench.noop_wire_lifecycles_per_s", noopWire)
	set("bench.trace_overhead_frac", 1-per(tr.lifecyclesPerS(), ref.lifecyclesPerS()))
	set("bench.segment_spread_frac", spread(ref.perSeg.lps))
	set("bench.calib_mops", median(calib.mops))
	set("bench.steal_frac", (ref.stealFrac*refSegments+tr.stealFrac*tracedSegments)/(refSegments+tracedSegments))
	set("failed_frac", per(float64(out.Failed), float64(out.Attempted)))

	// A layer's self time is its span minus its children's, so the self
	// times add up to the root span exactly when the seams nest and every
	// seam saw every op. The window's edges may cut an op per worker.
	root, rootName := client, "client"
	if !sp.wire {
		root, rootName = backend, "backend"
	}
	fmt.Printf("seams: client %+v backend %+v conn %+v (calls, total ns)\n", client, backend, conn)
	nested := backend.ns >= conn.ns && root.ns >= backend.ns
	if !nested || root.calls > backend.calls+workers || backend.calls > root.calls+workers || conn.calls+workers < backend.calls {
		out.Failed++
		fmt.Printf("FAILED seed=%d: seams disagree: %s %+v, backend %+v, conn %+v\n", seed, rootName, root, backend, conn)
	}
	out.Correct = out.Failed == 0
	return out
}

// inspectState exports every server's state once and returns the
// longest report window and the number of path states held.
func inspectState(st *stack) (hot, states int) {
	shards := st.primaries()
	if st.fleet != nil {
		for _, m := range st.fleet.Members {
			shards = append(shards, m.Backup())
		}
	}
	for _, sh := range shards {
		for _, ps := range sh.Export() {
			states++
			if len(ps.Reports) > hot {
				hot = len(ps.Reports)
			}
		}
	}
	return hot, states
}

// bareReplay plays the seed's preload into one bare phi.Server and then
// times a further stream on it, single-threaded under the same evidence
// clock: what the state layer costs with nothing in front of it. Each
// figure includes one timer read (~20 ns).
func bareReplay(sp spec, seed int64) (lookupUs, reportUs float64, err error) {
	clock := newEvidenceClock(sp.rate)
	srv := phi.NewServer(clock.Now, serverConfig)
	keys := sp.keys()
	for _, k := range keys {
		srv.RegisterPath(k, pathCapacityBps)
	}
	if err := playPreload(sp, seed, keys, srv, clock); err != nil {
		return 0, 0, err
	}
	g := newGenerator(sp, seed, streamReplay)
	var lookupNs, reportNs time.Duration
	n := sp.rate * 2 // two seconds of evidence
	for i := 0; i < n; i++ {
		l := g.next()
		key := keys[l.path]
		t := time.Now()
		for j := 0; j < sp.lookupsPerLifecycle(); j++ {
			if _, err := srv.Lookup(key); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		if err := playReports(sp, srv, key, l); err != nil {
			return 0, 0, err
		}
		lookupNs += t1.Sub(t)
		reportNs += time.Since(t1)
		clock.done.Add(1)
	}
	lookupUs = float64(lookupNs.Nanoseconds()) / float64(n*sp.lookupsPerLifecycle()) / 1e3
	reportUs = float64(reportNs.Nanoseconds()) / float64(n*sp.reportsPerLifecycle()) / 1e3
	return lookupUs, reportUs, nil
}

// noopBackend answers at once. Driving it measures the harness and, with
// a socket in front, phiwire's ceiling.
type noopBackend struct{}

func (noopBackend) Lookup(phi.PathKey) (phi.Context, error)      { return phi.Context{}, nil }
func (noopBackend) ReportStart(phi.PathKey) error                { return nil }
func (noopBackend) ReportProgress(phi.PathKey, phi.Report) error { return nil }
func (noopBackend) ReportEnd(phi.PathKey, phi.Report) error      { return nil }

// noopRuns returns the generator's own cost per lifecycle (one worker on
// a no-op backend) and the lifecycles/s two workers reach through
// phiwire when the backend does nothing.
func noopRuns(sp spec, seed int64) (genNs, wireLps float64, err error) {
	cfg := runConfig{spec: sp, seed: seed, segments: 1, segDur: 300 * time.Millisecond}
	keys := sp.keys()
	clock := newEvidenceClock(sp.rate)

	w := newWorker(0, &cfg, noopBackend{}, keys, clock)
	t0 := time.Now()
	w.loop(t0, t0.Add(cfg.segDur))
	genNs = float64(cfg.segDur.Nanoseconds()) / float64(w.segs[0].lifecycles)

	srv := phiwire.NewServer(noopBackend{}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	cfg.segDur = time.Second
	var stations [workers]station
	for i := range stations {
		c := phiwire.Dial(ln.Addr().String(), 0)
		defer c.Close()
		stations[i] = c
	}
	t0 = time.Now().Add(200 * time.Millisecond)
	ws, wait := startWorkers(&cfg, stations, keys, clock, t0, t0.Add(cfg.segDur))
	wait()
	var n, failed uint64
	for _, w := range ws {
		n += w.segs[0].lifecycles
		failed += w.failed
	}
	if failed != 0 {
		return 0, 0, fmt.Errorf("%d operations failed against the no-op backend: %v", failed, ws[0].firstErr)
	}
	return genNs, float64(n) / cfg.segDur.Seconds(), nil
}
