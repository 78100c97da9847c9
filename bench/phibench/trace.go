package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/trace"
)

// The traced run times the stack from outside, at three seams:
//
//	client   the worker's call into phiwire.Client      (tracedStation)
//	backend  phiwire.Server's call into cluster.Frontend (tracedBackend)
//	conn     the Frontend's call into a Shard or Member  (tracedConn)
//
// A layer's self time is its span minus its children: phiwire owns
// client − backend, the frontend owns backend − Σ conn, and whatever sits
// behind the Conn owns the conn spans. Every span is summed; one
// lifecycle in spanSampleEvery also keeps its spans, with parents, for
// the spans file.

const spanSampleEvery = 64

type seam uint8

const (
	seamClient seam = iota
	seamBackend
	seamConn
)

var seamNames = [...]string{"client", "backend", "conn"}

type opKind uint8

const (
	opLookup opKind = iota
	opStart
	opProgress
	opEnd
)

var opNames = [...]string{"lookup", "report_start", "report_progress", "report_end"}

// span is one kept seam crossing. Times are nanoseconds since the
// recorder was made.
type span struct {
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Lifecycle uint64 `json:"lifecycle"`
	Worker    int    `json:"worker"`
	Name      string `json:"name"`
	Shard     int    `json:"shard"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

// seamSum totals one seam for one worker.
type seamSum struct {
	calls uint64
	ns    int64
}

// workerTrace is one worker's side of the recorder. The worker goroutine
// owns client and clientSpans; whichever goroutine serves that worker's
// requests — its connection's handler, or the worker itself when there
// is no socket — owns the rest. The atomics are what crosses between
// them.
type workerTrace struct {
	lifecycle  atomic.Uint64 // current lifecycle; written by the worker
	keep       atomic.Bool   // keep this lifecycle's spans
	clientSpan atomic.Uint64 // id of the open client span, the backend span's parent

	client      seamSum
	clientSpans []span

	backendSpan  uint64 // id of the open backend span, the conn spans' parent
	backend      seamSum
	conn         seamSum
	servingSpans []span

	_ [64]byte // keep two workers' counters off one cache line
}

type recorder struct {
	t0      time.Time
	on      atomic.Bool // set while measured segments run
	nextID  atomic.Uint64
	workers [workers]workerTrace
}

func newRecorder(spansPerWorker int) *recorder {
	r := &recorder{t0: time.Now()}
	for w := range r.workers {
		r.workers[w].clientSpans = make([]span, 0, spansPerWorker)
		r.workers[w].servingSpans = make([]span, 0, 4*spansPerWorker)
	}
	return r
}

// beginLifecycle is called by worker w before the first op of lifecycle n.
func (r *recorder) beginLifecycle(w int, n uint64) {
	wt := &r.workers[w]
	wt.lifecycle.Store(n)
	wt.keep.Store(r.on.Load() && n%spanSampleEvery == 0)
}

func (r *recorder) since() int64 { return int64(time.Since(r.t0)) }

// finish adds one crossing to sum and, for a kept lifecycle, appends its
// span to buf if there is room.
func (r *recorder) finish(w int, sum *seamSum, buf *[]span, sm seam, op opKind, shard int, id, parent uint64, start int64) {
	end := r.since()
	if !r.on.Load() {
		return
	}
	sum.calls++
	sum.ns += end - start
	if id != 0 && len(*buf) < cap(*buf) {
		*buf = append(*buf, span{
			ID: id, Parent: parent, Lifecycle: r.workers[w].lifecycle.Load(), Worker: w,
			Name: seamNames[sm] + "." + opNames[op], Shard: shard, StartNs: start, EndNs: end,
		})
	}
}

// newID returns a span id for a kept lifecycle and 0 otherwise.
func (r *recorder) newID(wt *workerTrace) uint64 {
	if !wt.keep.Load() {
		return 0
	}
	return r.nextID.Add(1)
}

func (r *recorder) sums() (client, backend, conn seamSum) {
	for w := range r.workers {
		wt := &r.workers[w]
		client.calls += wt.client.calls
		client.ns += wt.client.ns
		backend.calls += wt.backend.calls
		backend.ns += wt.backend.ns
		conn.calls += wt.conn.calls
		conn.ns += wt.conn.ns
	}
	return
}

// writeSpans writes every kept span to path as one JSON array.
func (r *recorder) writeSpans(path string) (n int, err error) {
	var all []span
	for w := range r.workers {
		all = append(all, r.workers[w].clientSpans...)
		all = append(all, r.workers[w].servingSpans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// station is what a worker drives: phiwire.Client over a socket,
// cluster.Frontend without one, or a decorator around either.
type station = phiwire.Backend

// tracedStation records the client seam around a worker's station.
type tracedStation struct {
	r     *recorder
	w     int
	inner station
}

func (s *tracedStation) begin() (id uint64, start int64) {
	wt := &s.r.workers[s.w]
	id = s.r.newID(wt)
	wt.clientSpan.Store(id)
	return id, s.r.since()
}

func (s *tracedStation) end(op opKind, id uint64, start int64) {
	wt := &s.r.workers[s.w]
	s.r.finish(s.w, &wt.client, &wt.clientSpans, seamClient, op, -1, id, 0, start)
}

func (s *tracedStation) Lookup(path phi.PathKey) (phi.Context, error) {
	id, start := s.begin()
	ctx, err := s.inner.Lookup(path)
	s.end(opLookup, id, start)
	return ctx, err
}

func (s *tracedStation) ReportStart(path phi.PathKey) error {
	id, start := s.begin()
	err := s.inner.ReportStart(path)
	s.end(opStart, id, start)
	return err
}

func (s *tracedStation) ReportProgress(path phi.PathKey, rep phi.Report) error {
	id, start := s.begin()
	err := s.inner.ReportProgress(path, rep)
	s.end(opProgress, id, start)
	return err
}

func (s *tracedStation) ReportEnd(path phi.PathKey, rep phi.Report) error {
	id, start := s.begin()
	err := s.inner.ReportEnd(path, rep)
	s.end(opEnd, id, start)
	return err
}

// tracedFrontend is what a tracedBackend wraps: cluster.Frontend's two
// facets.
type tracedFrontend interface {
	phiwire.Backend
	phiwire.TracedBackend
}

// tracedBackend records the backend seam for one worker. Each worker
// gets its own, in front of a frontend of its own and behind its own
// phiwire.Server when there is a socket, because neither a Backend nor a
// Conn can tell which connection a request came in on. It forwards each
// facet to the same facet: a plain call stays plain, a span call stays a
// span call with its context unchanged.
type tracedBackend struct {
	r     *recorder
	w     int
	inner tracedFrontend
}

func (b *tracedBackend) begin() (id uint64, start int64) {
	wt := &b.r.workers[b.w]
	id = b.r.newID(wt)
	wt.backendSpan = id
	return id, b.r.since()
}

func (b *tracedBackend) end(op opKind, id uint64, start int64) {
	wt := &b.r.workers[b.w]
	b.r.finish(b.w, &wt.backend, &wt.servingSpans, seamBackend, op, -1, id, wt.clientSpan.Load(), start)
}

func (b *tracedBackend) Lookup(path phi.PathKey) (phi.Context, error) {
	id, start := b.begin()
	ctx, err := b.inner.Lookup(path)
	b.end(opLookup, id, start)
	return ctx, err
}

func (b *tracedBackend) ReportStart(path phi.PathKey) error {
	id, start := b.begin()
	err := b.inner.ReportStart(path)
	b.end(opStart, id, start)
	return err
}

func (b *tracedBackend) ReportProgress(path phi.PathKey, rep phi.Report) error {
	id, start := b.begin()
	err := b.inner.ReportProgress(path, rep)
	b.end(opProgress, id, start)
	return err
}

func (b *tracedBackend) ReportEnd(path phi.PathKey, rep phi.Report) error {
	id, start := b.begin()
	err := b.inner.ReportEnd(path, rep)
	b.end(opEnd, id, start)
	return err
}

func (b *tracedBackend) LookupSpan(sc trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	id, start := b.begin()
	ctx, err := b.inner.LookupSpan(sc, path)
	b.end(opLookup, id, start)
	return ctx, err
}

func (b *tracedBackend) ReportStartSpan(sc trace.SpanContext, path phi.PathKey) error {
	id, start := b.begin()
	err := b.inner.ReportStartSpan(sc, path)
	b.end(opStart, id, start)
	return err
}

func (b *tracedBackend) ReportProgressSpan(sc trace.SpanContext, path phi.PathKey, rep phi.Report) error {
	id, start := b.begin()
	err := b.inner.ReportProgressSpan(sc, path, rep)
	b.end(opProgress, id, start)
	return err
}

func (b *tracedBackend) ReportEndSpan(sc trace.SpanContext, path phi.PathKey, rep phi.Report) error {
	id, start := b.begin()
	err := b.inner.ReportEndSpan(sc, path, rep)
	b.end(opEnd, id, start)
	return err
}

// tracedShard is what a tracedConn wraps: both facets of a cluster.Shard
// or fleet.Member.
type tracedShard interface {
	cluster.Conn
	cluster.TracedConn
}

// tracedConn records the conn seam between one worker's frontend and one
// shard or member. The shard is shared; the decorator is not. Like
// tracedBackend it forwards each facet to the same facet.
type tracedConn struct {
	r     *recorder
	w     int
	shard int
	inner tracedShard
}

func (c *tracedConn) begin() (id uint64, start int64) {
	return c.r.newID(&c.r.workers[c.w]), c.r.since()
}

func (c *tracedConn) end(op opKind, id uint64, start int64) {
	wt := &c.r.workers[c.w]
	c.r.finish(c.w, &wt.conn, &wt.servingSpans, seamConn, op, c.shard, id, wt.backendSpan, start)
}

func (c *tracedConn) Lookup(path phi.PathKey) (phi.Context, error) {
	id, start := c.begin()
	ctx, err := c.inner.Lookup(path)
	c.end(opLookup, id, start)
	return ctx, err
}

func (c *tracedConn) ReportStart(path phi.PathKey) error {
	id, start := c.begin()
	err := c.inner.ReportStart(path)
	c.end(opStart, id, start)
	return err
}

func (c *tracedConn) ReportProgress(path phi.PathKey, rep phi.Report) error {
	id, start := c.begin()
	err := c.inner.ReportProgress(path, rep)
	c.end(opProgress, id, start)
	return err
}

func (c *tracedConn) ReportEnd(path phi.PathKey, rep phi.Report) error {
	id, start := c.begin()
	err := c.inner.ReportEnd(path, rep)
	c.end(opEnd, id, start)
	return err
}

func (c *tracedConn) LookupSpan(sc trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	id, start := c.begin()
	ctx, err := c.inner.LookupSpan(sc, path)
	c.end(opLookup, id, start)
	return ctx, err
}

func (c *tracedConn) ReportStartSpan(sc trace.SpanContext, path phi.PathKey) error {
	id, start := c.begin()
	err := c.inner.ReportStartSpan(sc, path)
	c.end(opStart, id, start)
	return err
}

func (c *tracedConn) ReportProgressSpan(sc trace.SpanContext, path phi.PathKey, rep phi.Report) error {
	id, start := c.begin()
	err := c.inner.ReportProgressSpan(sc, path, rep)
	c.end(opProgress, id, start)
	return err
}

func (c *tracedConn) ReportEndSpan(sc trace.SpanContext, path phi.PathKey, rep phi.Report) error {
	id, start := c.begin()
	err := c.inner.ReportEndSpan(sc, path, rep)
	c.end(opEnd, id, start)
	return err
}

// RegisterPath lets Frontend.RegisterPath reach the shard through the
// decorator, as it does without one.
func (c *tracedConn) RegisterPath(path phi.PathKey, capacityBps int64) {
	if reg, ok := c.inner.(interface {
		RegisterPath(phi.PathKey, int64)
	}); ok {
		reg.RegisterPath(path, capacityBps)
	}
}
