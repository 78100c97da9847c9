package phiwire

import (
	"repro/internal/phi"
	"repro/internal/telemetry"
)

// ServerMetrics is the wire server's telemetry surface: per-message-type
// request counters, whole-request handling latency, and the live
// connection count. A nil *ServerMetrics disables instrumentation; the
// hot path then pays one branch per request.
type ServerMetrics struct {
	// Per-type accepted-request counters: the four backend operations by
	// phi.OpKind, and policy fetches.
	Requests [4]*telemetry.Counter
	Policies *telemetry.Counter
	// Rejected counts malformed or unknown frames; Errors counts backend
	// errors returned to clients (e.g. degrades under shard loss).
	Rejected *telemetry.Counter
	Errors   *telemetry.Counter
	// HandleSeconds times decode + backend call + encode per request
	// (excluding socket reads/writes).
	HandleSeconds *telemetry.Histogram
	// OpenConns tracks currently connected clients.
	OpenConns *telemetry.Gauge
}

// NewServerMetrics registers the wire-server metric set. A nil registry
// yields nil, so callers can wire unconditionally.
func NewServerMetrics(reg *telemetry.Registry) *ServerMetrics {
	if reg == nil {
		return nil
	}
	requests := func(typ string) *telemetry.Counter {
		return reg.Counter("phiwire_server_requests_total", "requests accepted by type", telemetry.Labels{"type": typ})
	}
	return &ServerMetrics{
		Requests: [4]*telemetry.Counter{
			phi.OpLookup:         requests("lookup"),
			phi.OpReportStart:    requests("report_start"),
			phi.OpReportEnd:      requests("report_end"),
			phi.OpReportProgress: requests("report_progress"),
		},
		Policies:      requests("get_policy"),
		Rejected:      reg.Counter("phiwire_server_rejected_total", "malformed or unknown frames", nil),
		Errors:        reg.Counter("phiwire_server_errors_total", "backend errors returned to clients", nil),
		HandleSeconds: reg.Histogram("phiwire_server_handle_seconds", "request handling latency (decode+backend+encode)", nil),
		OpenConns:     reg.Gauge("phiwire_server_open_conns", "currently connected clients", nil),
	}
}
