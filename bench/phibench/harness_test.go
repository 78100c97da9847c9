package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// small is a workload sized for tests: the same shape as the real ones,
// a second of evidence per window's worth instead of minutes of work.
func small(sp spec) spec {
	sp.paths, sp.rate, sp.preload = 32, 200, 1.2
	return sp
}

func TestSameSeedSameStream(t *testing.T) {
	for _, sp := range specs {
		a, b := streamHash(sp, 7, 0, 5000), streamHash(sp, 7, 0, 5000)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x and %x", sp.name, a, b)
		}
		if c := streamHash(sp, 8, 0, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
		if c := streamHash(sp, 7, 1, 5000); c == a {
			t.Errorf("%s: workers 0 and 1 gave the same stream", sp.name)
		}
	}
}

func TestEvidenceClock(t *testing.T) {
	const rate, perWorker = 4000, 20000
	c := newEvidenceClock(rate)
	if c.step != sim.Second/rate {
		t.Fatalf("step %v, want 1s/%d", c.step, rate)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for i := 0; i < perWorker; i++ {
				c.done.Add(1)
				now := c.Now()
				if now < last+c.step {
					t.Errorf("clock went from %v to %v across a completed lifecycle", last, now)
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), epoch+workers*perWorker*c.step; got != want {
		t.Errorf("after %d lifecycles the clock reads %v, want %v", workers*perWorker, got, want)
	}
}

func TestHistogramAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]int64, 50000)
	for i := range xs {
		xs[i] = int64(math.Exp(rng.NormFloat64()*1.5 + 10)) // log-normal around 22 us
		h.record(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)))]
		_, width := bucketBounds(bucketOf(exact))
		if got := h.quantile(q); math.Abs(got-float64(exact)) > float64(width) {
			t.Errorf("q%.3f: histogram %.0f, sort %d, bucket width %d", q, got, exact, width)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<36 - 1, 1 << 40} {
		b := bucketOf(v)
		lo, width := bucketBounds(b)
		if b < 0 || b >= histBuckets || (v < 1<<histMaxBits && (v < lo || v >= lo+width)) {
			t.Errorf("value %d in bucket %d [%d,%d)", v, b, lo, lo+width)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 4, 9, 2, 8, 5, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); got != (8.25-2.75)/5.5 {
		t.Errorf("spread %v", got)
	}
	// A segment median ignores one wrecked segment.
	segs := []float64{100, 101, 99, 100, 3, 102, 100}
	if m := median(segs); m != 100 {
		t.Errorf("median %v", m)
	}
}

// TestQuietSegments: timings leave out the segments the host stole from,
// and only those; a run with no quiet segment keeps them all.
func TestQuietSegments(t *testing.T) {
	r := &runResult{}
	r.perSeg.lps = []float64{100, 40, 102, 50, 98, 101}
	r.perSeg.steal = []float64{0, 0.30, 0.0075, 0.021, 0, 0.02}
	r.quiet = quietSegments(r.perSeg.steal)
	if len(r.quiet) != 4 || r.lifecyclesPerS() != 100.5 {
		t.Errorf("quiet segments %v, median %v; want 0 2 4 5 and 100.5", r.quiet, r.lifecyclesPerS())
	}
	// A slowdown the host did not cause stays in.
	r.perSeg.steal = []float64{0, 0, 0, 0, 0, 0}
	r.quiet = quietSegments(r.perSeg.steal)
	if len(r.quiet) != 6 || r.lifecyclesPerS() != 99 {
		t.Errorf("quiet segments %v, median %v; want all six and 99", r.quiet, r.lifecyclesPerS())
	}
	if q := quietSegments([]float64{0.5, 0.4, 0.3}); len(q) != 3 {
		t.Errorf("a run stolen from throughout kept segments %v, want all three", q)
	}
}

// fakeShard is a Conn with both facets that records which one was
// called, spinning for delay first.
type fakeShard struct {
	delay       time.Duration
	plain, span int
	lastSC      trace.SpanContext
}

func (f *fakeShard) spin() {
	for t := time.Now(); time.Since(t) < f.delay; {
	}
}

func (f *fakeShard) Lookup(phi.PathKey) (phi.Context, error) {
	f.plain++
	f.spin()
	return phi.Context{N: 1}, nil
}
func (f *fakeShard) ReportStart(phi.PathKey) error                { f.plain++; f.spin(); return nil }
func (f *fakeShard) ReportEnd(phi.PathKey, phi.Report) error      { f.plain++; f.spin(); return nil }
func (f *fakeShard) ReportProgress(phi.PathKey, phi.Report) error { f.plain++; f.spin(); return nil }
func (f *fakeShard) LookupSpan(sc trace.SpanContext, _ phi.PathKey) (phi.Context, error) {
	f.span++
	f.lastSC = sc
	f.spin()
	return phi.Context{N: 1}, nil
}
func (f *fakeShard) ReportStartSpan(sc trace.SpanContext, _ phi.PathKey) error {
	f.span++
	f.lastSC = sc
	f.spin()
	return nil
}
func (f *fakeShard) ReportEndSpan(sc trace.SpanContext, _ phi.PathKey, _ phi.Report) error {
	f.span++
	f.lastSC = sc
	f.spin()
	return nil
}
func (f *fakeShard) ReportProgressSpan(sc trace.SpanContext, _ phi.PathKey, _ phi.Report) error {
	f.span++
	f.lastSC = sc
	f.spin()
	return nil
}

func TestDecoratorsForwardFacets(t *testing.T) {
	rec := newRecorder(16)
	sc := trace.SpanContext{Trace: 42, Span: 7}

	f := &fakeShard{}
	conn := &tracedConn{r: rec, inner: f}
	var _ cluster.TracedConn = conn // the frontend must find the span facet on the wrapper
	conn.Lookup("p")
	conn.ReportStart("p")
	conn.ReportProgress("p", phi.Report{})
	conn.ReportEnd("p", phi.Report{})
	if f.plain != 4 || f.span != 0 {
		t.Fatalf("plain conn calls reached the shard as %d plain, %d span", f.plain, f.span)
	}
	conn.LookupSpan(sc, "p")
	conn.ReportStartSpan(sc, "p")
	conn.ReportProgressSpan(sc, "p", phi.Report{})
	conn.ReportEndSpan(sc, "p", phi.Report{})
	if f.plain != 4 || f.span != 4 || f.lastSC != sc {
		t.Fatalf("span conn calls reached the shard as %d plain, %d span, context %+v", f.plain-4, f.span, f.lastSC)
	}

	g := &fakeShard{}
	be := &tracedBackend{r: rec, w: 1, inner: g}
	var _ phiwire.TracedBackend = be // phiwire.Server must find the span facet on the wrapper
	be.Lookup("p")
	be.ReportStart("p")
	be.ReportProgress("p", phi.Report{})
	be.ReportEnd("p", phi.Report{})
	if g.plain != 4 || g.span != 0 {
		t.Fatalf("plain backend calls reached the frontend as %d plain, %d span", g.plain, g.span)
	}
	be.LookupSpan(sc, "p")
	be.ReportStartSpan(sc, "p")
	be.ReportProgressSpan(sc, "p", phi.Report{})
	be.ReportEndSpan(sc, "p", phi.Report{})
	if g.plain != 4 || g.span != 4 || g.lastSC != sc {
		t.Fatalf("span backend calls reached the frontend as %d plain, %d span, context %+v", g.plain-4, g.span, g.lastSC)
	}

	// End to end: with no tracer anywhere, a plain call into a traced
	// stack reaches the shard plain, as it does in the untraced one.
	h := &fakeShard{}
	conns := make([]cluster.Conn, shardCount)
	for i := range conns {
		conns[i] = &tracedConn{r: rec, shard: i, inner: h}
	}
	fe := cluster.NewFrontend(cluster.NewRing(shardCount, 0), conns, cluster.FrontendConfig{})
	(&tracedBackend{r: rec, inner: fe}).Lookup("p")
	if h.plain != 1 || h.span != 0 {
		t.Errorf("a plain lookup through backend, frontend and conn decorators reached the shard as %d plain, %d span", h.plain, h.span)
	}
}

// TestPlantedConnDelay puts a known 5 us inside a fake Conn behind a real
// frontend and requires the conn seam to report it. It reads the seam
// the way a run reads its segments: many short batches, and their median.
func TestPlantedConnDelay(t *testing.T) {
	const planted, calls = 5 * time.Microsecond, 200
	var perCall []float64
	for batch := 0; batch < 25; batch++ {
		rec := newRecorder(16)
		conns := make([]cluster.Conn, shardCount)
		for i := range conns {
			conns[i] = &tracedConn{r: rec, shard: i, inner: &fakeShard{delay: planted}}
		}
		fe := cluster.NewFrontend(cluster.NewRing(shardCount, 0), conns, cluster.FrontendConfig{})
		be := &tracedBackend{r: rec, inner: fe}
		rec.on.Store(true)
		for i := 0; i < calls; i++ {
			if _, err := be.Lookup(phi.PathKey("p" + string(rune('a'+i%26)))); err != nil {
				t.Fatal(err)
			}
		}
		_, backend, conn := rec.sums()
		if conn.calls != calls || backend.calls != calls {
			t.Fatalf("seams saw %d conn and %d backend calls, want %d of each", conn.calls, backend.calls, calls)
		}
		perCall = append(perCall, float64(conn.ns)/float64(conn.calls))
	}
	if got := median(perCall); math.Abs(got-float64(planted)) > 0.2*float64(planted) {
		t.Errorf("fleet.member_us_per_call recovered %.0f ns of a planted %v", got, planted)
	}
}

// corrupting returns one wrong context.
type corrupting struct {
	station
	key phi.PathKey
}

func (c corrupting) Lookup(k phi.PathKey) (phi.Context, error) {
	ctx, err := c.station.Lookup(k)
	if k == c.key {
		ctx.U += 1e-9
	}
	return ctx, err
}

func TestOutputCheck(t *testing.T) {
	for _, sp := range specs {
		sp = small(sp)
		st, err := buildStack(sp, stackOptions{seed: 3, wire: sp.wire, observed: sp.observed})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := verifyPreload(st, 3); err != nil || n != sp.paths {
			t.Errorf("%s: %d paths checked: %v", sp.name, n, err)
		}
		st.stations[0] = corrupting{st.stations[0], st.keys[0]}
		if _, err := verifyPreload(st, 3); err == nil || !strings.Contains(err.Error(), "seed 3") {
			t.Errorf("%s: one corrupted context passed the output check: %v", sp.name, err)
		}
		st.close()
	}
}

// TestRunCounts drives every workload shape briefly, traced and not, and
// requires a clean result: no failed operation, server counts equal to
// operations sent, seams that saw every op.
func TestRunCounts(t *testing.T) {
	for _, sp := range specs {
		sp = small(sp)
		for _, traced := range []bool{false, true} {
			cfg := runConfig{spec: sp, seed: 5, segments: 3, segDur: 40 * time.Millisecond, warmup: 40 * time.Millisecond, setups: 1, verify: true}
			if traced {
				cfg.rec = newRecorder(64)
			}
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			r.st.close()
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", sp.name, traced, r.failed, r.attempted, r.firstErr)
			}
			if !traced {
				continue
			}
			client, backend, conn := cfg.rec.sums()
			if backend.calls == 0 || conn.calls < backend.calls {
				t.Errorf("%s: seams %+v %+v %+v", sp.name, client, backend, conn)
			}
			if sp.wire && (client.calls == 0 || client.ns < backend.ns) {
				t.Errorf("%s: client seam %+v inside backend seam %+v", sp.name, client, backend)
			}
		}
	}
}

// TestBenchmarkFile holds BENCHMARK.json and the program to one list of
// workloads and metrics, by the check every run makes.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.check(false, endToEndMetrics(&runResult{})); err != nil {
		t.Error(err)
	}
	layer := map[string]metric{}
	for _, lm := range layerMetrics {
		layer[lm.name] = metric{0, lm.unit}
	}
	if err := bf.check(true, layer); err != nil {
		t.Error(err)
	}
	delete(layer, layerMetrics[0].name)
	if err := bf.check(true, layer); err == nil {
		t.Error("a run that left a declared metric out passed the check")
	}
}
