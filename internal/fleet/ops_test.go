package fleet

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// opConn is the method set every serving layer exports: both facets of
// cluster.Conn (phiwire.Backend and TracedBackend are the same methods).
type opConn interface {
	cluster.Conn
	cluster.TracedConn
}

// The four operations, each through its plain and its span facet. name
// is the operation's suffix in every layer's span names.
var layerOps = []struct {
	name  string
	plain func(c opConn) (phi.Context, error)
	span  func(c opConn, sc trace.SpanContext) (phi.Context, error)
}{
	{"report_start",
		func(c opConn) (phi.Context, error) { return phi.Context{}, c.ReportStart("p") },
		func(c opConn, sc trace.SpanContext) (phi.Context, error) {
			return phi.Context{}, c.ReportStartSpan(sc, "p")
		}},
	{"report_progress",
		func(c opConn) (phi.Context, error) { return phi.Context{}, c.ReportProgress("p", layerReport) },
		func(c opConn, sc trace.SpanContext) (phi.Context, error) {
			return phi.Context{}, c.ReportProgressSpan(sc, "p", layerReport)
		}},
	{"report_end",
		func(c opConn) (phi.Context, error) { return phi.Context{}, c.ReportEnd("p", layerReport) },
		func(c opConn, sc trace.SpanContext) (phi.Context, error) {
			return phi.Context{}, c.ReportEndSpan(sc, "p", layerReport)
		}},
	{"lookup",
		func(c opConn) (phi.Context, error) { return c.Lookup("p") },
		func(c opConn, sc trace.SpanContext) (phi.Context, error) { return c.LookupSpan(sc, "p") }},
}

var layerReport = phi.Report{
	Bytes: 250_000, Duration: 200 * sim.Millisecond,
	AvgRTT: 130 * sim.Millisecond, MinRTT: 100 * sim.Millisecond, LossRate: 0.01,
}

// TestOpsThroughEveryLayer drives all four operations, plain and span,
// through each serving layer's exported methods and holds the layer to a
// bare phi.Server fed the same sequence on the same clock: same Context,
// no error while the layer is up, one error class for every operation
// once everything beneath it is down, and the estimator's phi.<op> span
// joins the caller's trace exactly when the caller passed a context.
func TestOpsThroughEveryLayer(t *testing.T) {
	type layer struct {
		name string
		// build assembles the layer over clock with tr attached to every
		// part of it, and returns what takes everything beneath it down.
		build func(t *testing.T, clock func() sim.Time, tr *trace.Tracer) (c opConn, kill func())
		// down recognises the layer's error once kill has run.
		down func(error) bool
	}
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	layers := []layer{
		{"shard", func(_ *testing.T, clock func() sim.Time, tr *trace.Tracer) (opConn, func()) {
			s := cluster.NewShard(0, clock, phi.ServerConfig{})
			s.SetTracer(tr)
			return s, s.Crash
		}, is(cluster.ErrShardDown)},
		{"member", func(_ *testing.T, clock func() sim.Time, tr *trace.Tracer) (opConn, func()) {
			m := NewMember(0, clock, phi.ServerConfig{}, 0)
			m.Primary().SetTracer(tr)
			m.Backup().SetTracer(tr)
			// Both replicas down is a real outage: the member surfaces
			// ErrShardDown so the frontend's degradation takes over.
			return m, func() { m.KillBackup(); m.KillPrimary() }
		}, is(cluster.ErrShardDown)},
		{"frontend", func(_ *testing.T, clock func() sim.Time, tr *trace.Tracer) (opConn, func()) {
			cl := cluster.New(cluster.Config{Shards: 2, Clock: clock})
			cl.Trace(tr)
			return cl.Frontend, func() {
				for _, s := range cl.Shards {
					s.Crash()
				}
			}
		}, is(cluster.ErrAllReplicasDown)},
		{"wire", func(t *testing.T, clock func() sim.Time, tr *trace.Tracer) (opConn, func()) {
			s := cluster.NewShard(0, clock, phi.ServerConfig{})
			s.SetTracer(tr)
			srv := phiwire.NewServer(s, nil)
			srv.SetTracer(tr)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln) //nolint:errcheck // returns on Close
			c := phiwire.Dial(ln.Addr().String(), 5*time.Second)
			c.SetTracer(tr)
			t.Cleanup(func() { c.Close(); srv.Close() })
			return c, s.Crash
		}, func(err error) bool { var se phiwire.ServerError; return errors.As(err, &se) }},
	}

	for _, l := range layers {
		for _, spanFacet := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/span=%v", l.name, spanFacet), func(t *testing.T) {
				now := sim.Second
				clock := func() sim.Time { return now }
				tr := trace.NewTracer(trace.Config{SampleEvery: 1})
				conn, kill := l.build(t, clock, tr)
				bare := phi.NewServer(clock, phi.ServerConfig{})

				// call runs op under a root span of the test's own and
				// reports whether the estimator's span joined that trace.
				call := func(i int) (ctx phi.Context, joined bool, err error) {
					op := layerOps[i]
					root := tr.Start(trace.SpanContext{}, trace.Name("test.root"))
					if spanFacet {
						ctx, err = op.span(conn, root.Context())
					} else {
						ctx, err = op.plain(conn)
					}
					root.End(nil)
					id := fmt.Sprintf("%016x", uint64(root.Context().Trace))
					col := tr.Collector()
					for _, kept := range [][]*trace.Trace{col.Errors(), col.Slowest(), col.Sampled()} {
						for _, tc := range kept {
							for _, sp := range tc.Spans {
								joined = joined || (tc.ID == id && sp.Name == "phi."+op.name)
							}
						}
					}
					return ctx, joined, err
				}

				for _, i := range []int{0, 0, 1, 2, 3, 1, 2, 3} {
					now += 10 * sim.Millisecond
					op := layerOps[i]
					got, joined, err := call(i)
					want, _ := op.plain(bare)
					if err != nil || got != want {
						t.Errorf("%s = %v, %v; the bare server says %v", op.name, got, err, want)
					}
					if joined != spanFacet {
						t.Errorf("%s: phi.%s span in the caller's trace = %v, want %v", op.name, op.name, joined, spanFacet)
					}
				}

				kill()
				for i, op := range layerOps {
					if _, _, err := call(i); !l.down(err) {
						t.Errorf("%s with everything down: err = %v, not this layer's down error", op.name, err)
					}
				}
			})
		}
	}
}
