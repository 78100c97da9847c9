package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histograms are exposed with
// `_bucket{le=...}` series in seconds (only non-empty buckets, which is
// valid: cumulative counts over any increasing subset of bounds), plus
// `_sum` (seconds) and `_count`. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)
	for _, m := range r.snapshot() {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, typeString(m.kind))
		}
		switch m.kind {
		case counterKind:
			fmt.Fprintf(bw, "%s %d\n", series(m.name, m.labels, ""), m.counter.Value())
		case gaugeKind:
			fmt.Fprintf(bw, "%s %s\n", series(m.name, m.labels, ""), formatFloat(m.gauge.Value()))
		case histogramKind:
			writeHistogram(bw, m)
		}
	}
	return bw.Flush()
}

func typeString(k metricKind) string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series renders `name{labels,extra}`, omitting empty braces.
func series(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits the cumulative bucket series. Recorded values are
// nanoseconds; bounds and sum are converted to seconds per Prometheus
// convention (names should end in _seconds).
func writeHistogram(w io.Writer, m *registered) {
	s := m.hist.Snapshot()
	var cum uint64
	for i := range s.Buckets {
		if s.Buckets[i] == 0 {
			continue
		}
		cum += s.Buckets[i]
		le := formatFloat(float64(bucketUpper(i)) / 1e9)
		fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, `le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, `le="+Inf"`), s.Count)
	fmt.Fprintf(w, "%s %s\n", series(m.name+"_sum", m.labels, ""), formatFloat(float64(s.Sum)/1e9))
	fmt.Fprintf(w, "%s %d\n", series(m.name+"_count", m.labels, ""), s.Count)
}

// Handler returns an http.Handler serving the exposition (any path).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are gone; nothing to do but drop the conn.
			return
		}
	})
}

// ExemplarsHandler serves the registry's histogram exemplars as JSON:
// metric series name to a list of {upper_ns, trace_id} pairs. The
// Prometheus 0.0.4 text format cannot carry exemplars, so they get
// their own debug endpoint; the trace IDs are the hex form /debug/traces
// reports.
func (r *Registry) ExemplarsHandler() http.Handler {
	type jsonExemplar struct {
		UpperNs int64  `json:"upper_ns"`
		TraceID string `json:"trace_id"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := make(map[string][]jsonExemplar)
		if r != nil {
			for _, m := range r.snapshot() {
				if m.kind != histogramKind {
					continue
				}
				exs := m.hist.Exemplars()
				if len(exs) == 0 {
					continue
				}
				js := make([]jsonExemplar, len(exs))
				for i, e := range exs {
					js[i] = jsonExemplar{UpperNs: e.UpperNs, TraceID: fmt.Sprintf("%016x", e.TraceID)}
				}
				out[series(m.name, m.labels, "")] = js
			}
		}
		json.NewEncoder(w).Encode(out)
	})
}

// MetricsServer is a running exposition endpoint.
type MetricsServer struct {
	ln     net.Listener
	srv    *http.Server
	routes []string
}

// Endpoint mounts an extra handler on the metrics server — how the
// daemons hang /debug/traces and friends off the same port they already
// expose for scraping.
type Endpoint struct {
	Path    string
	Handler http.Handler
	// Desc is the one-line purpose shown on the /debug/ index page.
	Desc string
}

// Serve starts an HTTP server on addr exposing reg at /metrics (and at
// /, for curl convenience), histogram exemplars at /debug/exemplars,
// the standard pprof profiles under /debug/pprof/, and any extra
// endpoints. It returns once the listener is bound, so the caller knows
// scrapes can succeed; the accept loop runs in the background until
// Close.
func Serve(addr string, reg *Registry, extra ...Endpoint) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// One table drives BOTH mux registration and the /debug/ index, so a
	// route cannot be mounted without being listed (and the index-
	// completeness test holds by construction for built-ins and extras
	// alike).
	routes := []Endpoint{
		{Path: "/metrics", Handler: reg.Handler(), Desc: "Prometheus text exposition of every registered metric"},
		{Path: "/debug/exemplars", Handler: reg.ExemplarsHandler(), Desc: "histogram bucket → newest trace ID links"},
		{Path: "/debug/pprof/", Handler: http.HandlerFunc(pprof.Index), Desc: "CPU, heap, goroutine, and runtime profiles"},
		{Path: "/debug/pprof/cmdline", Handler: http.HandlerFunc(pprof.Cmdline), Desc: "process command line"},
		{Path: "/debug/pprof/profile", Handler: http.HandlerFunc(pprof.Profile), Desc: "CPU profile (?seconds=N)"},
		{Path: "/debug/pprof/symbol", Handler: http.HandlerFunc(pprof.Symbol), Desc: "symbol lookup for profile addresses"},
		{Path: "/debug/pprof/trace", Handler: http.HandlerFunc(pprof.Trace), Desc: "runtime execution trace (?seconds=N)"},
	}
	routes = append(routes, extra...)
	mux := http.NewServeMux()
	entries := make([]debugEntry, 0, len(routes))
	paths := make([]string, 0, len(routes))
	for _, e := range routes {
		mux.Handle(e.Path, e.Handler)
		entries = append(entries, debugEntry{Path: e.Path, Desc: e.Desc})
		paths = append(paths, e.Path)
	}
	// The /debug/ index lists everything mounted here, so an operator —
	// and phi-load's -debug-url, which derives every scrape from it —
	// needs one URL, not eight. It is always the index (an extra endpoint
	// may not claim the path); specific /debug/* routes above still win
	// in the mux.
	mux.Handle("/debug/", debugIndexHandler(entries))
	mux.Handle("/", reg.Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv, routes: paths}, nil
}

// Addr returns the bound address.
func (m *MetricsServer) Addr() net.Addr { return m.ln.Addr() }

// Routes returns every path explicitly mounted on the metrics mux — by
// construction, exactly the set the /debug/ index lists (the "/" and
// "/debug/" catch-alls are implementation detail, not routes).
func (m *MetricsServer) Routes() []string {
	return append([]string(nil), m.routes...)
}

// Close stops the endpoint.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// debugEntry is one row of the /debug/ index.
type debugEntry struct {
	Path string `json:"path"`
	Desc string `json:"desc,omitempty"`
}

// debugIndexHandler serves the endpoint directory:
//
//	GET /debug/              JSON {endpoints: [{path, desc}, ...]}
//	GET /debug/?format=text  one aligned "path  desc" line each
//
// It also catches unknown /debug/* paths, answering 404 with the index
// in text form — a typo lands on the map instead of an empty page.
func debugIndexHandler(entries []debugEntry) http.Handler {
	sorted := append([]debugEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	width := 0
	for _, e := range sorted {
		if len(e.Path) > width {
			width = len(e.Path)
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/debug/" && req.URL.Path != "/debug" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "no handler for %s; registered debug endpoints:\n\n", req.URL.Path)
			writeDebugIndexText(w, sorted, width)
			return
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeDebugIndexText(w, sorted, width)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"endpoints": sorted})
	})
}

func writeDebugIndexText(w io.Writer, entries []debugEntry, width int) {
	for _, e := range entries {
		fmt.Fprintf(w, "%-*s  %s\n", width, e.Path, e.Desc)
	}
}
