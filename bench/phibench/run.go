package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
)

// runConfig is one set-up, warm-up and measured window of one workload.
type runConfig struct {
	spec     spec
	seed     int64
	segments int
	segDur   time.Duration
	warmup   time.Duration
	setups   int  // stacks built and timed; the last one is measured
	verify   bool // compare every path's context against the bare replay before timing
	direct   bool // workers call the frontend, not a socket, whatever the spec says
	plain    bool // leave the observers off, whatever the spec says
	rec      *recorder
	// between, if set, runs on the coordinating goroutine at the end of
	// every segment while the workers keep going.
	between func()
	// inspect, if set, sees the stack after the window, before it is
	// torn down.
	inspect func(*stack)
}

// segment is what one worker saw in one segment.
type segment struct {
	lifecycles uint64
	lookup     hist
}

type worker struct {
	id    int
	cfg   *runConfig
	st    station
	keys  []phi.PathKey
	gen   *generator
	clock *evidenceClock
	segs  []segment
	// cpuAt[i] is the process's CPU time at the start of segment i, as
	// sampled by worker 0 on its first completion in that segment.
	cpuAt []time.Duration

	lifecycles       uint64 // all, warm-up included
	lookups, reports uint64
	failed           uint64
	firstErr         error
}

// runResult is everything a run measured.
type runResult struct {
	cfg     runConfig
	setupS  []float64
	perSeg  struct{ lps, p50us, p99us, cpuUs, steal []float64 }
	quiet   []int // the segments the timings are taken over
	samples struct{ minLookups, lookups, lifecycles uint64 }
	lookup  hist // all measured segments merged

	allocsPerLifecycle float64
	liveHeapMB         float64
	attempted, failed  uint64
	firstErr           error
	verified           int // paths whose context matched the bare replay

	// window is what the stack's own counters gained over the measured
	// window, and windowLifecycles the lifecycles completed in it.
	window           counters
	windowLifecycles int64
	// stealFrac is the share of the window's CPU time the hypervisor
	// gave to other guests: how disturbed the run was. perSeg.steal is
	// the same for each segment.
	stealFrac float64

	st *stack // still assembled; the caller closes it
}

// stealLimit is the share of a segment's CPU time the host may give to
// other guests before the segment is left out of the timings. Steal is
// the one disturbance the guest can see; at two thirds of a second on two
// CPUs, two of the kernel's 10 ms ticks pass and three do not.
const stealLimit = 0.02

// quietSegments lists the segments whose steal stayed within the limit,
// or every segment if the host left none alone.
func quietSegments(steal []float64) []int {
	var quiet, all []int
	for i, s := range steal {
		all = append(all, i)
		if s <= stealLimit {
			quiet = append(quiet, i)
		}
	}
	if len(quiet) == 0 {
		return all
	}
	return quiet
}

// A run's timings are medians over its quiet segments, so that a burst of
// noise costs the segments it hits and not the run, while anything the
// program does in half of its segments or more shows in full.
func (r *runResult) overQuiet(perSeg []float64) float64 {
	xs := make([]float64, len(r.quiet))
	for i, s := range r.quiet {
		xs[i] = perSeg[s]
	}
	return median(xs)
}

func (r *runResult) lifecyclesPerS() float64    { return r.overQuiet(r.perSeg.lps) }
func (r *runResult) lookupP50us() float64       { return r.overQuiet(r.perSeg.p50us) }
func (r *runResult) lookupP99us() float64       { return r.overQuiet(r.perSeg.p99us) }
func (r *runResult) cpuUsPerLifecycle() float64 { return r.overQuiet(r.perSeg.cpuUs) }
func (r *runResult) setupSeconds() float64      { return median(r.setupS) }

// hostSteal returns the CPU time the hypervisor has so far given to
// other guests while this one wanted to run, from /proc/stat (ticks of
// 10 ms, all CPUs summed); zero where the kernel does not say.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run builds the stack cfg.setups times, checks the last one's outputs,
// warms it up and measures cfg.segments segments of closed-loop load.
func run(cfg runConfig) (*runResult, error) {
	res := &runResult{cfg: cfg}
	opts := stackOptions{
		seed:     cfg.seed,
		wire:     cfg.spec.wire && !cfg.direct,
		observed: cfg.spec.observed && !cfg.plain,
		rec:      cfg.rec,
	}
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC() // each set-up starts from the same heap
		t := time.Now()
		var err error
		if st, err = buildStack(cfg.spec, opts); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	res.st = st

	if cfg.verify {
		n, err := verifyPreload(st, cfg.seed)
		st.lookupsSent += uint64(n)
		res.verified = n
		if err != nil {
			return res, err
		}
	}

	st.startBackground()
	runtime.GC()
	t0 := time.Now().Add(cfg.warmup)
	end := t0.Add(time.Duration(cfg.segments) * cfg.segDur)
	ws, wait := startWorkers(&cfg, st.stations, st.keys, st.clock, t0, end)

	// The coordinator is off every timed path: it sleeps to the window's
	// edges to read the allocator's and the stack's counters against the
	// lifecycle count, and to every segment's edge to read the host's.
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(t0))
	if cfg.rec != nil {
		cfg.rec.on.Store(true)
	}
	runtime.ReadMemStats(&m0)
	c0 := st.counters()
	done0 := st.clock.done.Load()
	stealAt := make([]time.Duration, cfg.segments+1)
	stealAt[0] = hostSteal()
	for i := 1; i <= cfg.segments; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * cfg.segDur)))
		stealAt[i] = hostSteal()
		if cfg.between != nil {
			cfg.between()
		}
	}
	wait()
	if cfg.rec != nil {
		cfg.rec.on.Store(false)
	}
	capacity := cfg.segDur.Seconds() * float64(runtime.NumCPU())
	for i := 0; i < cfg.segments; i++ {
		res.perSeg.steal = append(res.perSeg.steal, (stealAt[i+1]-stealAt[i]).Seconds()/capacity)
	}
	res.quiet = quietSegments(res.perSeg.steal)
	res.stealFrac = (stealAt[cfg.segments] - stealAt[0]).Seconds() / (capacity * float64(cfg.segments))
	runtime.ReadMemStats(&m1)
	res.window = st.counters().sub(c0)
	res.windowLifecycles = st.clock.done.Load() - done0
	if res.windowLifecycles > 0 {
		res.allocsPerLifecycle = float64(m1.Mallocs-m0.Mallocs) / float64(res.windowLifecycles)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeapMB = float64(m1.HeapAlloc) / (1 << 20)

	res.collect(ws)
	res.checkCounts(ws)
	if cfg.inspect != nil {
		cfg.inspect(st)
	}
	return res, nil
}

func newWorker(id int, cfg *runConfig, st station, keys []phi.PathKey, clock *evidenceClock) *worker {
	return &worker{
		id: id, cfg: cfg, st: st, keys: keys, clock: clock,
		gen:   newGenerator(cfg.spec, cfg.seed, id),
		segs:  make([]segment, cfg.segments),
		cpuAt: make([]time.Duration, cfg.segments+1),
	}
}

// startWorkers starts one closed-loop worker per station; wait returns
// when all have passed end.
func startWorkers(cfg *runConfig, stations [workers]station, keys []phi.PathKey, clock *evidenceClock, t0, end time.Time) (ws []*worker, wait func()) {
	var wg sync.WaitGroup
	for i, st := range stations {
		w := newWorker(i, cfg, st, keys, clock)
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(t0, end)
		}()
	}
	return ws, wg.Wait
}

// loop is one closed-loop client: the next op goes out when the last
// one returned. It never sleeps and never allocates.
func (w *worker) loop(t0, end time.Time) {
	sp := w.cfg.spec
	rec := w.cfg.rec
	parts := sp.progress + 1
	lastSeg := -1
	for {
		l := w.gen.next()
		key := w.keys[l.path]
		if rec != nil {
			rec.beginLifecycle(w.id, w.lifecycles)
		}
		ts := time.Now()
		ctx, err := w.st.Lookup(key)
		lat := time.Since(ts)
		w.lookups++
		w.check(ctx, err)
		w.reports++
		w.note(w.st.ReportStart(key))
		for i := 0; i < sp.refresh; i++ {
			ctx, err = w.st.Lookup(key)
			w.lookups++
			w.check(ctx, err)
		}
		rep := l.report(parts)
		for i := 0; i < sp.progress; i++ {
			w.reports++
			w.note(w.st.ReportProgress(key, rep))
		}
		w.reports++
		w.note(w.st.ReportEnd(key, rep))
		w.clock.done.Add(1)
		w.lifecycles++

		now := time.Now()
		if now.Before(t0) {
			continue // warm-up
		}
		seg := int(now.Sub(t0) / w.cfg.segDur)
		if w.id == 0 && seg != lastSeg {
			cpu := cpuTime()
			for i := lastSeg + 1; i <= seg && i < len(w.cpuAt); i++ {
				w.cpuAt[i] = cpu
			}
			lastSeg = seg
		}
		if seg >= len(w.segs) {
			return
		}
		w.segs[seg].lifecycles++
		w.segs[seg].lookup.record(int64(lat))
	}
}

func (w *worker) note(err error) {
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
}

// check counts an error or an impossible context as a failed lookup.
// Under concurrent load the exact context is not reproducible, but its
// range is: utilization in [0,1], a queue estimate no larger than the
// largest RTT the generator reports over the smallest, and no more open
// connections than there are workers.
func (w *worker) check(ctx phi.Context, err error) {
	if err == nil && (ctx.U < 0 || ctx.U > 1 || ctx.Q < 0 || ctx.Q > 30*sim.Millisecond || ctx.N < 0 || ctx.N > workers) {
		err = fmt.Errorf("worker %d: context out of range: %v", w.id, ctx)
	}
	w.note(err)
}

func (r *runResult) collect(ws []*worker) {
	cfg := r.cfg
	r.samples.minLookups = ^uint64(0)
	for s := 0; s < cfg.segments; s++ {
		var h hist
		var n uint64
		for _, w := range ws {
			h.merge(&w.segs[s].lookup)
			n += w.segs[s].lifecycles
		}
		r.lookup.merge(&h)
		r.samples.lifecycles += n
		if h.n < r.samples.minLookups {
			r.samples.minLookups = h.n
		}
		r.perSeg.lps = append(r.perSeg.lps, float64(n)/cfg.segDur.Seconds())
		r.perSeg.p50us = append(r.perSeg.p50us, h.quantile(0.50)/1e3)
		r.perSeg.p99us = append(r.perSeg.p99us, h.quantile(0.99)/1e3)
		cpu := ws[0].cpuAt[s+1] - ws[0].cpuAt[s]
		r.perSeg.cpuUs = append(r.perSeg.cpuUs, float64(cpu.Microseconds())/float64(max(n, 1)))
	}
	r.samples.lookups = r.lookup.n
	for _, w := range ws {
		r.attempted += w.lookups + w.reports
		r.failed += w.failed
		if r.firstErr == nil {
			r.firstErr = w.firstErr
		}
	}
}

// checkCounts requires the servers to have seen exactly what was sent:
// every lookup once, on some primary, and every report once on its
// owner and once on its ring fallback. A fleet member then writes each
// of those again to its backup; that copy is checked by its counters,
// because a resync replaces the backup's server and its Stats with it.
func (r *runResult) checkCounts(ws []*worker) {
	st := r.st
	lookups, reports := st.lookupsSent, st.reportsSent
	for _, w := range ws {
		lookups += w.lookups
		reports += w.reports
	}
	var gotLookups, gotReports uint64
	for _, sh := range st.primaries() {
		l, rp := sh.Stats()
		gotLookups += l
		gotReports += rp
	}
	fail := func(format string, args ...any) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf(format, args...)
		}
	}
	if gotLookups != lookups {
		fail("servers counted %d lookups, %d were sent", gotLookups, lookups)
	}
	if gotReports != 2*reports {
		fail("servers counted %d reports, want 2 x %d sent", gotReports, reports)
	}
	if fs := st.frontendStats(); fs.Failovers+fs.Degraded+fs.Retries != 0 || fs.Mirrored != reports {
		fail("frontend: %+v with %d reports sent", fs, reports)
	}
	if st.fleet != nil {
		var backup uint64
		for _, m := range st.fleet.Members {
			ms := m.Status()
			// Reports that arrived during a resync are in the snapshot,
			// replayed, or still pending; all three reach the backup.
			backup += ms.Mirrored + ms.Replayed + uint64(ms.PendingReplay)
			if ms.MirrorErrors+ms.ReplayDropped+ms.Promotions+ms.BackupServed != 0 {
				fail("member %d: %+v", m.Index, ms)
			}
		}
		if backup > 2*reports {
			fail("backups took %d reports, more than 2 x %d sent", backup, reports)
		}
	}
}

// verifyPreload replays the seed's preload into one bare phi.Server
// under its own evidence clock and requires every path's Lookup through
// the full stack — over the socket where the workload has one — to
// return the identical context. It returns the number of paths compared.
func verifyPreload(st *stack, seed int64) (int, error) {
	sp := st.spec
	clock := newEvidenceClock(sp.rate)
	bare := phi.NewServer(clock.Now, serverConfig)
	for _, k := range st.keys {
		bare.RegisterPath(k, pathCapacityBps)
	}
	if err := playPreload(sp, seed, st.keys, bare, clock); err != nil {
		return 0, err
	}
	if got, want := st.clock.Now(), clock.Now(); got != want {
		return 0, fmt.Errorf("seed %d: stack clock %v, replay clock %v", seed, got, want)
	}
	// Both connections check half the paths each.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(st.keys); i += workers {
				k := st.keys[i]
				want, _ := bare.Lookup(k)
				got, err := st.stations[w].Lookup(k)
				if err == nil && got != want {
					err = fmt.Errorf("stack says %v, bare server says %v", got, want)
				}
				if err != nil {
					errs[w] = fmt.Errorf("seed %d: output check: path %s: %w", seed, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return len(st.keys), err
		}
	}
	return len(st.keys), nil
}
