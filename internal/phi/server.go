package phi

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ServerConfig tunes the context server's estimators.
type ServerConfig struct {
	// Window is the sliding window over which reported bytes are turned
	// into a utilization estimate (default 10 s).
	Window sim.Time
	// QueueAlpha is the EWMA smoothing factor for the queue estimate
	// (default 0.3).
	QueueAlpha float64
	// ActiveTTL expires a registered sender that never reports back (a
	// crashed client must not inflate the n estimate forever). Default
	// 60 s; zero keeps the default, negative disables expiry.
	ActiveTTL sim.Time
	// PassiveWeight scales the influence of passively inferred reports
	// (Report.Source == SourcePassive) relative to cooperative ones: the
	// report's bytes and its queue-estimate contribution are both
	// multiplied by it. 1 treats both sources equally, values below 1
	// discount inference noise, above 1 trust the egress view more than
	// sender self-reports. Default 1; zero keeps the default, negative
	// ignores passive reports entirely (their byte/RTT evidence is
	// dropped; start/end registration still maintains n).
	PassiveWeight float64
	// FreshTTL is the evidence age below which a lookup counts as a
	// fresh hit for the quality layer (older evidence is a stale hit).
	// Default: Window — context computed from evidence still inside the
	// estimation window is fresh by construction. Zero keeps the
	// default; negative treats any evidence as fresh.
	FreshTTL sim.Time
	// MaxPaths bounds the per-path state map. When a new path would
	// push the map past the bound, idle paths (no active senders) are
	// evicted oldest-touched first, in a batch, down to ~90% of the
	// bound. Zero or negative leaves the map unbounded (the historical
	// behavior).
	MaxPaths int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Window == 0 {
		c.Window = 10 * sim.Second
	}
	if c.QueueAlpha == 0 {
		c.QueueAlpha = 0.3
	}
	if c.ActiveTTL == 0 {
		c.ActiveTTL = 60 * sim.Second
	}
	if c.PassiveWeight == 0 {
		c.PassiveWeight = 1
	}
	if c.FreshTTL == 0 {
		c.FreshTTL = c.Window
	}
	return c
}

// Server is the in-process context server: the repository of shared state
// for one administrative domain. It is fed only at connection boundaries
// (the paper's minimal-overhead "practical" design) and is safe for
// concurrent use, so the same instance can back the wire protocol.
//
// Time is injected as a clock function so the server runs both inside the
// simulator (engine.Now) and against the wall clock.
type Server struct {
	mu    sync.Mutex
	clock func() sim.Time
	cfg   ServerConfig
	paths map[PathKey]*pathState

	// lookups and reports count operations; they are atomics so Stats can
	// be read while the server is serving without taking s.mu.
	// passiveReports counts the subset of reports tagged SourcePassive.
	lookups        atomic.Uint64
	reports        atomic.Uint64
	passiveReports atomic.Uint64

	// metrics is the optional telemetry surface (nil = uninstrumented;
	// the hot path then pays exactly one branch). Set before serving.
	metrics *ServerMetrics

	// tracer records per-operation spans (nil = untraced; same one-branch
	// discipline as metrics). Set before serving.
	tracer *trace.Tracer

	// quality feeds the context-quality observatory (nil = unmeasured;
	// same one-branch discipline — the tracker's methods are nil-safe
	// too, so this hook costs nothing when quality is off). Atomic because
	// a fleet promotion moves the tracker between replicas while both
	// are taking calls.
	quality atomic.Pointer[quality.Tracker]

	// evicted counts idle paths removed by the MaxPaths bound. Atomic so
	// tests and Stats readers never take s.mu.
	evicted atomic.Uint64
}

// SetQuality attaches (or detaches, with nil) the context-quality
// tracker; safe while serving. The tracker is typically shared by
// every server in the process, so quality aggregates across shards.
func (s *Server) SetQuality(q *quality.Tracker) { s.quality.Store(q) }

type timedReport struct {
	at    sim.Time
	bytes int64
}

type pathState struct {
	capacityBps int64
	// starts holds the registration times of active senders (FIFO); a
	// ReportEnd retires the oldest, matching the paper's
	// one-start-one-end protocol without per-flow identifiers.
	starts     []sim.Time
	reports    []timedReport
	minRTT     sim.Time
	qEWMA      sim.Time
	qInit      bool
	maxRateBps float64
	// lossEWMA smooths reported loss rates with the same alpha as the
	// queue estimate; it exists for the quality layer's loss-accuracy
	// pairing (the served context itself carries u/q/n only).
	lossEWMA float64
	lossInit bool
	// lastActive / lastPassive are when each source last contributed
	// evidence (weight > 0) — the freshness metadata the quality layer
	// samples at lookup time. Zero means never.
	lastActive  sim.Time
	lastPassive sim.Time
	// touched is the last access of any kind; the MaxPaths eviction
	// removes idle paths oldest-touched first.
	touched sim.Time
}

// NewServer creates a context server reading time from clock.
func NewServer(clock func() sim.Time, cfg ServerConfig) *Server {
	return &Server{clock: clock, cfg: cfg.withDefaults(), paths: make(map[PathKey]*pathState)}
}

// RegisterPath declares a path's bottleneck capacity, enabling calibrated
// utilization estimates. Without it the capacity is learned as the largest
// aggregate rate ever observed.
func (s *Server) RegisterPath(path PathKey, capacityBps int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state(path, s.clock()).capacityBps = capacityBps
}

func (s *Server) state(path PathKey, now sim.Time) *pathState {
	st, ok := s.paths[path]
	if !ok {
		if s.cfg.MaxPaths > 0 && len(s.paths) >= s.cfg.MaxPaths {
			s.evictIdleLocked()
		}
		st = &pathState{}
		s.paths[path] = st
		if m := s.metrics; m != nil {
			m.Paths.Set(float64(len(s.paths)))
		}
	}
	st.touched = now
	return st
}

// evictIdleLocked removes idle paths (no registered active senders),
// oldest-touched first, until the map is at ~90% of MaxPaths — batched
// so the scan cost amortizes over many inserts instead of paying O(n)
// per new path at the bound. Paths with active senders are never
// evicted: their n estimate is live state a sender paid a report for.
// Caller holds s.mu.
func (s *Server) evictIdleLocked() {
	target := s.cfg.MaxPaths * 9 / 10
	if target < 1 {
		target = 1
	}
	excess := len(s.paths) - target + 1 // +1: make room for the insert
	if excess <= 0 {
		return
	}
	type cand struct {
		key     PathKey
		touched sim.Time
	}
	cands := make([]cand, 0, len(s.paths))
	for k, st := range s.paths {
		if len(st.starts) > 0 {
			continue
		}
		cands = append(cands, cand{k, st.touched})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touched < cands[j].touched })
	if excess > len(cands) {
		excess = len(cands)
	}
	q := s.quality.Load()
	for _, c := range cands[:excess] {
		delete(s.paths, c.key)
		q.ForgetPath(string(c.key))
	}
	s.evicted.Add(uint64(excess))
	if m := s.metrics; m != nil {
		m.EvictedPaths.Add(uint64(excess))
		m.Paths.Set(float64(len(s.paths)))
	}
}

// EvictedPaths returns how many idle paths the MaxPaths bound has
// removed. Safe to call while serving.
func (s *Server) EvictedPaths() uint64 { return s.evicted.Load() }

// lookup computes the path's current context from the evidence inside
// the estimation window.
func (s *Server) lookup(path PathKey) Context {
	m := s.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	q := s.quality.Load()
	s.mu.Lock()
	s.lookups.Add(1)
	now := s.clock()
	st := s.state(path, now)
	s.prune(st, now)
	s.expireActives(st, now)

	var bytes int64
	for _, r := range st.reports {
		bytes += r.bytes
	}
	window := s.cfg.Window.Seconds()
	rateBps := float64(bytes) * 8 / window
	if rateBps > st.maxRateBps {
		st.maxRateBps = rateBps
	}
	cap := float64(st.capacityBps)
	if cap <= 0 {
		cap = st.maxRateBps
	}
	u := 0.0
	if cap > 0 {
		u = rateBps / cap
		if u > 1 {
			u = 1
		}
	}
	ctx := Context{U: u, Q: st.qEWMA, N: len(st.starts)}
	// Quality sampling: outcome, per-source evidence ages, and the
	// RTT/loss estimate this lookup effectively served (minRTT + q is
	// the expected RTT a new connection on the path will see). Gathered
	// under the lock, recorded after it.
	var (
		outcome              quality.Outcome
		ageActive, agePassiv int64 = -1, -1
		predRTT              int64
		predLoss             float64
		predValid            bool
	)
	if q != nil {
		freshest := st.lastActive
		if st.lastPassive > freshest {
			freshest = st.lastPassive
		}
		switch {
		case freshest == 0:
			outcome = quality.OutcomeFallback
		case s.cfg.FreshTTL < 0 || now-freshest <= s.cfg.FreshTTL:
			outcome = quality.OutcomeFresh
		default:
			outcome = quality.OutcomeStale
		}
		if st.lastActive > 0 {
			ageActive = int64(now - st.lastActive)
		}
		if st.lastPassive > 0 {
			agePassiv = int64(now - st.lastPassive)
		}
		if st.minRTT > 0 {
			predRTT = int64(st.minRTT + st.qEWMA)
			predLoss = st.lossEWMA
			predValid = true
		}
	}
	s.mu.Unlock()
	if m != nil {
		m.Lookups.Inc()
		m.LookupSeconds.Observe(time.Since(start))
	}
	if q != nil {
		q.ObserveLookup(string(path), outcome, ageActive, agePassiv, predRTT, predLoss, predValid)
	}
	return ctx
}

// reportStart registers one more active sender on the path.
func (s *Server) reportStart(path PathKey) {
	m := s.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	s.mu.Lock()
	s.reports.Add(1)
	now := s.clock()
	st := s.state(path, now)
	st.starts = append(st.starts, now)
	s.mu.Unlock()
	if m != nil {
		m.Reports.Inc()
		m.ReportSeconds.Observe(time.Since(start))
	}
}

// report folds r into the path's estimates; an end report also retires
// the oldest registration, a progress report leaves it standing.
func (s *Server) report(path PathKey, r Report, end bool) {
	m := s.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	// Passive reports are weighed by policy: their byte evidence and
	// queue contribution are scaled by PassiveWeight (negative drops the
	// evidence but still maintains the start/end registration, so n
	// stays honest).
	weight := 1.0
	if r.Source == SourcePassive {
		s.passiveReports.Add(1)
		weight = s.cfg.PassiveWeight
	}
	qt := s.quality.Load()
	s.mu.Lock()
	s.reports.Add(1)
	now := s.clock()
	st := s.state(path, now)
	if end && len(st.starts) > 0 {
		// Copy down in place, as expireActives does: slicing the front
		// off would give capacity away, and the next reportStart's append
		// would reallocate.
		st.starts = append(st.starts[:0], st.starts[1:]...)
	}
	if weight > 0 {
		bytes := r.Bytes
		if weight != 1 {
			bytes = int64(float64(bytes) * weight)
		}
		st.reports = append(st.reports, timedReport{at: now, bytes: bytes})
		// Freshness metadata: this source just contributed evidence.
		if r.Source == SourcePassive {
			st.lastPassive = now
		} else {
			st.lastActive = now
		}
	}
	s.prune(st, now)

	if weight > 0 {
		if r.MinRTT > 0 && (st.minRTT == 0 || r.MinRTT < st.minRTT) {
			st.minRTT = r.MinRTT
		}
		if r.AvgRTT > 0 && st.minRTT > 0 {
			q := r.AvgRTT - st.minRTT
			if q < 0 {
				q = 0
			}
			if !st.qInit {
				st.qEWMA = q
				st.qInit = true
			} else {
				a := s.cfg.QueueAlpha * weight
				if a > 1 {
					a = 1
				}
				st.qEWMA = sim.Time(a*float64(q) + (1-a)*float64(st.qEWMA))
			}
		}
		// Loss EWMA, smoothed like the queue estimate; kept so the
		// quality layer can score the loss side of the served context.
		a := s.cfg.QueueAlpha * weight
		if a > 1 {
			a = 1
		}
		if !st.lossInit {
			st.lossEWMA = r.LossRate
			st.lossInit = true
		} else {
			st.lossEWMA = a*r.LossRate + (1-a)*st.lossEWMA
		}
	}
	s.mu.Unlock()
	if m != nil {
		m.Reports.Inc()
		if r.Source == SourcePassive {
			m.PassiveReports.Inc()
		}
		m.ReportSeconds.Observe(time.Since(start))
	}
	if qt != nil && weight > 0 && r.AvgRTT > 0 {
		src := quality.SourceActive
		if r.Source == SourcePassive {
			src = quality.SourcePassive
		}
		qt.ObserveReport(string(path), src, int64(r.AvgRTT), r.LossRate)
	}
}

// expireActives drops registrations older than the TTL.
func (s *Server) expireActives(st *pathState, now sim.Time) {
	if s.cfg.ActiveTTL < 0 {
		return
	}
	cutoff := now - s.cfg.ActiveTTL
	i := 0
	for i < len(st.starts) && st.starts[i] < cutoff {
		i++
	}
	if i > 0 {
		st.starts = append(st.starts[:0], st.starts[i:]...)
	}
}

func (s *Server) prune(st *pathState, now sim.Time) {
	cutoff := now - s.cfg.Window
	i := 0
	for i < len(st.reports) && st.reports[i].at < cutoff {
		i++
	}
	if i > 0 {
		st.reports = append(st.reports[:0], st.reports[i:]...)
	}
}

// ActiveSenders returns the currently registered sender count for a path
// (after TTL expiry).
func (s *Server) ActiveSenders(path PathKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	st := s.state(path, now)
	s.expireActives(st, now)
	return len(st.starts)
}

// Stats returns the lookup and report operation counts. It is safe to
// call while the server is serving.
func (s *Server) Stats() (lookups, reports uint64) {
	return s.lookups.Load(), s.reports.Load()
}

// Reset returns the server to its just-constructed state — no paths, all
// counters zero — keeping its configuration and everything attached to
// it (metrics, tracer, quality). A shard that crashes or restores resets
// its server in place rather than replacing it.
func (s *Server) Reset() {
	s.ImportState(nil)
	s.lookups.Store(0)
	s.reports.Store(0)
	s.passiveReports.Store(0)
	s.evicted.Store(0)
}

// PassiveReports returns how many reports were tagged SourcePassive
// (a subset of the Stats report count). Safe to call while serving.
func (s *Server) PassiveReports() uint64 { return s.passiveReports.Load() }

// PathCount returns the number of paths with state.
func (s *Server) PathCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.paths)
}

// Freshness enumerates every path's per-source evidence age — the
// quality tracker's path source (quality.Tracker.AddPathSource), polled
// only when a /debug/context snapshot is taken, never on the hot path.
func (s *Server) Freshness() []quality.PathFreshness {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	out := make([]quality.PathFreshness, 0, len(s.paths))
	for k, st := range s.paths {
		pf := quality.PathFreshness{Path: string(k), AgeActiveNs: -1, AgePassiveNs: -1}
		if st.lastActive > 0 {
			pf.AgeActiveNs = int64(now - st.lastActive)
		}
		if st.lastPassive > 0 {
			pf.AgePassiveNs = int64(now - st.lastPassive)
		}
		out = append(out, pf)
	}
	return out
}

// Oracle is a ContextSource with perfect, instantaneous knowledge — the
// upper bound that "Remy-Phi-ideal" and the coordinated Cubic sweeps
// assume. It wraps a function that reads ground truth (e.g. the bottleneck
// link monitor inside the simulator).
type Oracle struct {
	// Fn returns the true current context.
	Fn func() Context
}

// Lookup implements ContextSource.
func (o Oracle) Lookup(PathKey) (Context, error) { return o.Fn(), nil }
