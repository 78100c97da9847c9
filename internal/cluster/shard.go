package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrShardDown is returned by every operation against a crashed shard.
var ErrShardDown = errors.New("cluster: shard down")

// Conn is what the frontend needs from one shard: the full station
// interface plus mid-connection progress reports. *Shard implements it
// in-process; a wire-backed client implementing the same methods can
// stand in for a remote shard process.
type Conn interface {
	Lookup(path phi.PathKey) (phi.Context, error)
	ReportStart(path phi.PathKey) error
	ReportEnd(path phi.PathKey, r phi.Report) error
	ReportProgress(path phi.PathKey, r phi.Report) error
}

// Shard is one partition of the context-server keyspace: a phi.Server of
// its own (and therefore a lock of its own — hot paths on different
// shards never contend), plus crash/restart/restore controls used by the
// failover machinery and by fault-injection tests.
type Shard struct {
	// ID is the shard's index in the ring, fixed at construction.
	ID int

	clock func() sim.Time
	// srv is the shard's one phi.Server for life. A crash or a restore
	// resets it in place, so whatever was attached to it (metrics,
	// tracer, quality) stays attached: nothing can come up unobserved
	// because nothing is replaced.
	srv  *phi.Server
	down atomic.Bool

	// mu serializes Crash, Restart and RestoreSnapshot (and guards
	// snapMetrics); the data path never takes it.
	mu sync.Mutex
	// snapMetrics times the snapshot cycle (shared across shards).
	snapMetrics *SnapshotMetrics

	// lastSnap is the wall-clock time (unix nanos) of the last successful
	// SaveSnapshot, 0 if none yet. An atomic so health endpoints can read
	// staleness without contending with the snapshotter or the data path.
	lastSnap atomic.Int64
}

// NewShard creates shard id with its own backing phi.Server.
func NewShard(id int, clock func() sim.Time, cfg phi.ServerConfig) *Shard {
	return &Shard{ID: id, clock: clock, srv: phi.NewServer(clock, cfg)}
}

// server returns the backend, or nil if the shard is down.
func (s *Shard) server() *phi.Server {
	if s.down.Load() {
		return nil
	}
	return s.srv
}

// do is the shard's one body: a crashed shard refuses, a live one hands
// op to its phi.Server.
func (s *Shard) do(sc trace.SpanContext, op phi.Op) (phi.Context, error) {
	srv := s.server()
	if srv == nil {
		return phi.Context{}, ErrShardDown
	}
	return op.Do(sc, srv, srv)
}

// Lookup implements Conn.
func (s *Shard) Lookup(path phi.PathKey) (phi.Context, error) {
	return s.LookupSpan(trace.SpanContext{}, path)
}

// LookupSpan implements TracedConn; the zero context is the untraced call.
func (s *Shard) LookupSpan(sc trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	return s.do(sc, phi.Op{Kind: phi.OpLookup, Path: path})
}

// ReportStart implements Conn.
func (s *Shard) ReportStart(path phi.PathKey) error {
	return s.ReportStartSpan(trace.SpanContext{}, path)
}

// ReportStartSpan implements TracedConn.
func (s *Shard) ReportStartSpan(sc trace.SpanContext, path phi.PathKey) error {
	_, err := s.do(sc, phi.Op{Kind: phi.OpReportStart, Path: path})
	return err
}

// ReportEnd implements Conn.
func (s *Shard) ReportEnd(path phi.PathKey, r phi.Report) error {
	return s.ReportEndSpan(trace.SpanContext{}, path, r)
}

// ReportEndSpan implements TracedConn.
func (s *Shard) ReportEndSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	_, err := s.do(sc, phi.Op{Kind: phi.OpReportEnd, Path: path, Report: r})
	return err
}

// ReportProgress implements Conn.
func (s *Shard) ReportProgress(path phi.PathKey, r phi.Report) error {
	return s.ReportProgressSpan(trace.SpanContext{}, path, r)
}

// ReportProgressSpan implements TracedConn.
func (s *Shard) ReportProgressSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	_, err := s.do(sc, phi.Op{Kind: phi.OpReportProgress, Path: path, Report: r})
	return err
}

// RegisterPath forwards to the backing server (no-op while down).
func (s *Shard) RegisterPath(path phi.PathKey, capacityBps int64) {
	if srv := s.server(); srv != nil {
		srv.RegisterPath(path, capacityBps)
	}
}

// SetServerMetrics attaches the context-server metric set to the
// backing server. Call before the shard starts serving.
func (s *Shard) SetServerMetrics(m *phi.ServerMetrics) { s.srv.SetMetrics(m) }

// SetSnapshotMetrics attaches snapshot-cycle telemetry. Call before the
// snapshotter starts.
func (s *Shard) SetSnapshotMetrics(m *SnapshotMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapMetrics = m
}

// SetTracer attaches the span tracer to the backing server. Call before
// the shard starts serving.
func (s *Shard) SetTracer(t *trace.Tracer) { s.srv.SetTracer(t) }

// SetQuality attaches (or detaches, with nil) the context-quality
// tracker to the backing server. Safe while serving: a fleet promotion
// moves the tracker between replicas under load.
func (s *Shard) SetQuality(q *quality.Tracker) { s.srv.SetQuality(q) }

// Freshness enumerates the shard's per-path evidence ages for the
// quality tracker's stalest-paths list (nil while down).
func (s *Shard) Freshness() []quality.PathFreshness {
	srv := s.server()
	if srv == nil {
		return nil
	}
	return srv.Freshness()
}

// Crash simulates process loss: the shard goes down and all in-memory
// path state is discarded. Only a Restart (empty) or RestoreSnapshot
// (rehydrated) brings it back.
func (s *Shard) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down.Store(true)
	s.srv.Reset()
}

// Down reports whether the shard is crashed.
func (s *Shard) Down() bool { return s.down.Load() }

// Restart brings a crashed shard back with empty state (a no-op on a
// shard that is up).
func (s *Shard) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down.Load() {
		return
	}
	// Again: a call that raced Crash may have written after its Reset.
	s.srv.Reset()
	s.down.Store(false)
}

// Export snapshots the shard's path state (see phi.Server.ExportState).
// A down shard exports nothing.
func (s *Shard) Export() []phi.PathSnapshot {
	srv := s.server()
	if srv == nil {
		return nil
	}
	return srv.ExportState()
}

// LastSnapshotAt returns the wall-clock time of the last successful
// SaveSnapshot; ok is false if no snapshot has succeeded yet. Exposed so
// /debug/health can surface snapshot staleness before a crash proves it.
func (s *Shard) LastSnapshotAt() (t time.Time, ok bool) {
	ns := s.lastSnap.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Stats returns the backing server's lookup/report counters (zero while
// down — the counters died with the process).
func (s *Shard) Stats() (lookups, reports uint64) {
	srv := s.server()
	if srv == nil {
		return 0, 0
	}
	return srv.Stats()
}

// PathCount returns the number of paths with state on this shard.
func (s *Shard) PathCount() int {
	srv := s.server()
	if srv == nil {
		return 0
	}
	return srv.PathCount()
}
