package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"repro/internal/phi"
	"repro/internal/sim"
)

// workers is fixed: two closed-loop clients over two connections. More
// would exceed the CPUs of the boxes this runs on and measure the
// scheduler; fewer would leave the server mutex uncontended.
const workers = 2

// spec is one benchmark workload. BENCHMARK.json carries the reason each
// exists; bench/README.md the longer argument.
type spec struct {
	name     string
	fleet    bool    // fleet.New (primary+backup members, controller) instead of cluster.New
	wire     bool    // workers cross a loopback phiwire connection
	observed bool    // attach everything phi-cluster -metrics-addr -trace -stages -health attaches
	paths    int     // size of the path universe
	zipfS    float64 // Zipf exponent over paths; 0 draws uniformly
	refresh  int     // extra lookups per lifecycle after the start report
	progress int     // progress reports per lifecycle before the end report
	rate     int     // V: design rate in lifecycles/s that drives the evidence clock
	// preload is how many windows of evidence set-up plays in before any
	// timing. Anything above one leaves every path's window full and
	// already pruning when the first segment starts; each workload's
	// value is sized so that set-up is over a second of work.
	preload float64
}

var specs = []spec{
	{name: "wire-hot", wire: true, paths: 64, zipfS: 1.2, rate: 12000, preload: 2},
	{name: "wire-hot-observed", wire: true, observed: true, paths: 64, zipfS: 1.2, rate: 12000, preload: 1.4},
	{name: "wire-wide-refresh", wire: true, paths: 262144, refresh: 6, rate: 12000, preload: 3.5},
	{name: "direct-fleet-progress", fleet: true, paths: 4096, zipfS: 1.1, progress: 4, rate: 4000, preload: 3},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) lookupsPerLifecycle() int { return 1 + s.refresh }
func (s spec) reportsPerLifecycle() int { return 2 + s.progress }
func (s spec) opsPerLifecycle() int     { return s.lookupsPerLifecycle() + s.reportsPerLifecycle() }

// window is the servers' utilization window, the phi-cluster default.
const window = 10 * sim.Second

// preloadLifecycles is s.preload windows of lifecycles at the design rate.
func (s spec) preloadLifecycles() int {
	return int(s.preload * float64(s.rate) * float64(window/sim.Second))
}

// pathCapacityBps is registered for every path at table fill, as
// phi-cluster -path does, so the utilization the output check compares is
// bytes over a known capacity and not the self-normalising learned
// maximum.
const pathCapacityBps = 10_000_000_000

func (s spec) keys() []phi.PathKey {
	keys := make([]phi.PathKey, s.paths)
	for i := range keys {
		keys[i] = phi.PathKey(fmt.Sprintf("path-%06d", i))
	}
	return keys
}

// evidenceClock is the time the servers see: it advances by one design
// inter-arrival per completed lifecycle and not with the wall. Each
// path's window then holds what a production server at V lifecycles/s
// would hold, whatever the speed of this machine or this run, so per-op
// cost — linear in window occupancy — does not feed back on throughput.
type evidenceClock struct {
	done atomic.Int64
	step sim.Time
}

// epoch keeps the clock clear of zero, which the server reads as "never".
const epoch = 1000 * sim.Second

func newEvidenceClock(rate int) *evidenceClock {
	return &evidenceClock{step: sim.Second / sim.Time(rate)}
}

func (c *evidenceClock) Now() sim.Time { return epoch + sim.Time(c.done.Load())*c.step }

// lifecycle is one generated connection: which path, and what its
// reports say.
type lifecycle struct {
	path   int
	bytes  int64
	minRTT sim.Time
	avgRTT sim.Time
}

// report is the evidence one of the lifecycle's parts reports carries.
func (l lifecycle) report(parts int) phi.Report {
	b := l.bytes / int64(parts)
	return phi.Report{
		Bytes:    b,
		Duration: sim.Time(float64(b) * 8 / 1e9 * float64(sim.Second)),
		AvgRTT:   l.avgRTT,
		MinRTT:   l.minRTT,
	}
}

// Streams of one seed. Workers take 0..workers-1.
const (
	streamPreload = 100
	streamReplay  = 101
)

// generator draws the op stream of one worker. Everything the stack
// receives comes from here, and everything here comes from the seed.
type generator struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	paths int
}

func newGenerator(s spec, seed int64, stream int) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stream))), paths: s.paths}
	if s.zipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, s.zipfS, 1, uint64(s.paths-1))
	}
	return g
}

const meanBytes = 50_000

func (g *generator) next() lifecycle {
	var l lifecycle
	if g.zipf != nil {
		l.path = int(g.zipf.Uint64())
	} else {
		l.path = g.rng.Intn(g.paths)
	}
	l.bytes = int64(g.rng.ExpFloat64() * meanBytes)
	l.minRTT = 20*sim.Millisecond + sim.Time(g.rng.Int63n(int64(20*sim.Millisecond)))
	l.avgRTT = l.minRTT + sim.Time(g.rng.Int63n(int64(10*sim.Millisecond)))
	return l
}

// streamHash fingerprints the first n lifecycles of a stream.
func streamHash(s spec, seed int64, stream, n int) uint64 {
	g := newGenerator(s, seed, stream)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		l := g.next()
		fmt.Fprintf(h, "%d %d %d %d\n", l.path, l.bytes, l.minRTT, l.avgRTT)
	}
	return h.Sum64()
}
