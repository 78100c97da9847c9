package phi

import "repro/internal/trace"

// Span names for the context server's operations.
var (
	opLookup         = trace.Name("phi.lookup")
	opReportStart    = trace.Name("phi.report_start")
	opReportEnd      = trace.Name("phi.report_end")
	opReportProgress = trace.Name("phi.report_progress")
)

// SetTracer attaches (or detaches, with nil) the span tracer. Call
// before the server starts serving.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// LookupSpan is Lookup recorded as a child span of sc — the innermost
// hop of a traced request: client, frontend routing, shard call, then
// this, the actual estimator read. Like every XSpan below, an invalid sc
// is the untraced call: it falls through to X and starts no trace of its
// own (a fleet backup's catch-up replay stays out of the trace store).
func (s *Server) LookupSpan(sc trace.SpanContext, path PathKey) (Context, error) {
	if !sc.Valid() {
		return s.Lookup(path)
	}
	sp := s.tracer.Start(sc, opLookup)
	ctx, err := s.Lookup(path)
	sp.End(err)
	return ctx, err
}

// ReportStartSpan is ReportStart recorded as a child span of sc.
func (s *Server) ReportStartSpan(sc trace.SpanContext, path PathKey) error {
	if !sc.Valid() {
		return s.ReportStart(path)
	}
	sp := s.tracer.Start(sc, opReportStart)
	err := s.ReportStart(path)
	sp.End(err)
	return err
}

// ReportEndSpan is ReportEnd recorded as a child span of sc.
func (s *Server) ReportEndSpan(sc trace.SpanContext, path PathKey, r Report) error {
	if !sc.Valid() {
		return s.ReportEnd(path, r)
	}
	sp := s.tracer.Start(sc, opReportEnd)
	err := s.ReportEnd(path, r)
	sp.End(err)
	return err
}

// ReportProgressSpan is ReportProgress recorded as a child span of sc.
func (s *Server) ReportProgressSpan(sc trace.SpanContext, path PathKey, r Report) error {
	if !sc.Valid() {
		return s.ReportProgress(path, r)
	}
	sp := s.tracer.Start(sc, opReportProgress)
	err := s.ReportProgress(path, r)
	sp.End(err)
	return err
}
