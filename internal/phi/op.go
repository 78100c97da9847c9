package phi

import "repro/internal/trace"

// OpKind names one of the protocol's four operations (Section 2.2.2): a
// lookup when a connection starts, a start report, optional progress
// reports while it runs, an end report.
type OpKind uint8

const (
	OpLookup OpKind = iota
	OpReportStart
	OpReportEnd
	OpReportProgress
)

// Op is one protocol operation as a value. Every serving layer (Server,
// cluster.Shard, fleet.Member, cluster.Frontend, both ends of phiwire)
// has exactly one body, taking (trace.SpanContext, Op); its exported
// X/XSpan methods are one-line adapters that build the Op. Report is
// the zero value for lookups and start reports. The fleet's catch-up
// buffer stores Ops for replay.
type Op struct {
	Kind   OpKind
	Path   PathKey
	Report Report
}

// Do hands op to the next layer through its exported method set — the
// one the four serving interfaces (cluster.Conn and TracedConn,
// phiwire.Backend and TracedBackend) share — by the one dispatch rule
// the stack has: the span facet when the layer has one (traced non-nil)
// and sc is valid, the plain facet otherwise. So an untraced request
// crosses every seam through the plain methods, and a decorator
// between two layers sees exactly the facet its caller was given.
func (op Op) Do(sc trace.SpanContext, plain interface {
	Lookup(PathKey) (Context, error)
	ReportStart(PathKey) error
	ReportEnd(PathKey, Report) error
	ReportProgress(PathKey, Report) error
}, traced interface {
	LookupSpan(trace.SpanContext, PathKey) (Context, error)
	ReportStartSpan(trace.SpanContext, PathKey) error
	ReportEndSpan(trace.SpanContext, PathKey, Report) error
	ReportProgressSpan(trace.SpanContext, PathKey, Report) error
}) (Context, error) {
	if traced != nil && sc.Valid() {
		switch op.Kind {
		case OpLookup:
			return traced.LookupSpan(sc, op.Path)
		case OpReportStart:
			return Context{}, traced.ReportStartSpan(sc, op.Path)
		case OpReportEnd:
			return Context{}, traced.ReportEndSpan(sc, op.Path, op.Report)
		default:
			return Context{}, traced.ReportProgressSpan(sc, op.Path, op.Report)
		}
	}
	switch op.Kind {
	case OpLookup:
		return plain.Lookup(op.Path)
	case OpReportStart:
		return Context{}, plain.ReportStart(op.Path)
	case OpReportEnd:
		return Context{}, plain.ReportEnd(op.Path, op.Report)
	default:
		return Context{}, plain.ReportProgress(op.Path, op.Report)
	}
}

// Span names for the context server's operations, by OpKind.
var serverOpNames = [...]trace.Ref{
	OpLookup:         trace.Name("phi.lookup"),
	OpReportStart:    trace.Name("phi.report_start"),
	OpReportEnd:      trace.Name("phi.report_end"),
	OpReportProgress: trace.Name("phi.report_progress"),
}

// SetTracer attaches (or detaches, with nil) the span tracer. Call
// before the server starts serving.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// do is the server's one body: op applied to the estimators, recorded
// as a child span of sc — the innermost hop of a traced request:
// client, frontend routing, shard call, then this, the actual estimator
// access. An invalid sc is the untraced call and starts no trace of its
// own (a fleet backup's catch-up replay stays out of the trace store).
// In-process it never fails.
func (s *Server) do(sc trace.SpanContext, op Op) (Context, error) {
	var sp trace.Span // the zero Span no-ops
	if sc.Valid() {
		sp = s.tracer.Start(sc, serverOpNames[op.Kind])
	}
	var ctx Context
	switch op.Kind {
	case OpLookup:
		ctx = s.lookup(op.Path)
	case OpReportStart:
		s.reportStart(op.Path)
	default:
		s.report(op.Path, op.Report, op.Kind == OpReportEnd)
	}
	sp.End(nil)
	return ctx, nil
}

// Lookup implements ContextSource.
func (s *Server) Lookup(path PathKey) (Context, error) {
	return s.LookupSpan(trace.SpanContext{}, path)
}

// LookupSpan is Lookup recorded as a child span of sc.
func (s *Server) LookupSpan(sc trace.SpanContext, path PathKey) (Context, error) {
	return s.do(sc, Op{Kind: OpLookup, Path: path})
}

// ReportStart implements Reporter.
func (s *Server) ReportStart(path PathKey) error {
	return s.ReportStartSpan(trace.SpanContext{}, path)
}

// ReportStartSpan is ReportStart recorded as a child span of sc.
func (s *Server) ReportStartSpan(sc trace.SpanContext, path PathKey) error {
	_, err := s.do(sc, Op{Kind: OpReportStart, Path: path})
	return err
}

// ReportEnd implements Reporter.
func (s *Server) ReportEnd(path PathKey, r Report) error {
	return s.ReportEndSpan(trace.SpanContext{}, path, r)
}

// ReportEndSpan is ReportEnd recorded as a child span of sc.
func (s *Server) ReportEndSpan(sc trace.SpanContext, path PathKey, r Report) error {
	_, err := s.do(sc, Op{Kind: OpReportEnd, Path: path, Report: r})
	return err
}

// ReportProgress folds a mid-connection report in without retiring the
// sender's registration — the paper's long-connection refinement: "if the
// connections are long, we could communicate with the context server
// multiple times within the same connection." The report should carry the
// bytes moved since the previous report, not the running total.
func (s *Server) ReportProgress(path PathKey, r Report) error {
	return s.ReportProgressSpan(trace.SpanContext{}, path, r)
}

// ReportProgressSpan is ReportProgress recorded as a child span of sc.
func (s *Server) ReportProgressSpan(sc trace.SpanContext, path PathKey, r Report) error {
	_, err := s.do(sc, Op{Kind: OpReportProgress, Path: path, Report: r})
	return err
}
