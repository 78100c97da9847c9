package telemetry

// HTTP-level tests for Serve: every endpoint the daemons rely on
// (/metrics, /, /debug/exemplars, the pprof index) must answer on the
// bound address, with and without a registry (the dedicated
// /debug/health server passes reg == nil).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// get fetches a path from the server and returns status, content type,
// and body.
func get(t *testing.T, ms *MetricsServer, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", ms.Addr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("phi_test_requests_total", "test counter", nil).Add(7)
	h := reg.Histogram("phi_test_latency_seconds", "test histogram", nil)
	h.ObserveExemplar(3*time.Millisecond, 0xabcd)

	ms, err := Serve("127.0.0.1:0", reg,
		Endpoint{Path: "/debug/extra", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "extra ok")
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	t.Run("metrics", func(t *testing.T) {
		code, ct, body := get(t, ms, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
			t.Fatalf("content type %q: want Prometheus text format", ct)
		}
		if !strings.Contains(body, "phi_test_requests_total 7") {
			t.Fatalf("counter missing from exposition:\n%s", body)
		}
		if !strings.Contains(body, "phi_test_latency_seconds_count 1") {
			t.Fatalf("histogram missing from exposition:\n%s", body)
		}
	})

	t.Run("root serves the same exposition", func(t *testing.T) {
		code, _, body := get(t, ms, "/")
		if code != http.StatusOK || !strings.Contains(body, "phi_test_requests_total 7") {
			t.Fatalf("status %d, body:\n%s", code, body)
		}
	})

	t.Run("exemplars", func(t *testing.T) {
		code, ct, body := get(t, ms, "/debug/exemplars")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.Contains(ct, "application/json") {
			t.Fatalf("content type %q", ct)
		}
		var out map[string][]struct {
			UpperNs int64  `json:"upper_ns"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		exs, ok := out["phi_test_latency_seconds"]
		if !ok || len(exs) == 0 {
			t.Fatalf("no exemplars for the histogram: %s", body)
		}
		if exs[0].TraceID != fmt.Sprintf("%016x", 0xabcd) {
			t.Fatalf("exemplar trace ID %q", exs[0].TraceID)
		}
	})

	t.Run("pprof index", func(t *testing.T) {
		code, _, body := get(t, ms, "/debug/pprof/")
		if code != http.StatusOK || !strings.Contains(body, "goroutine") {
			t.Fatalf("status %d, body:\n%.200s", code, body)
		}
	})

	t.Run("extra endpoint", func(t *testing.T) {
		code, _, body := get(t, ms, "/debug/extra")
		if code != http.StatusOK || body != "extra ok" {
			t.Fatalf("status %d, body %q", code, body)
		}
	})
}

func TestServeNilRegistry(t *testing.T) {
	// A server without a registry (phi-load's -debug-addr) mounts only its
	// extra endpoints; the registry endpoints must still answer (empty)
	// rather than panic on the nil receiver.
	ms, err := Serve("127.0.0.1:0", nil,
		Endpoint{Path: "/debug/health", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"status":"ok"}`)
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	for _, path := range []string{"/metrics", "/", "/debug/exemplars"} {
		code, _, body := get(t, ms, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s with nil registry: status %d, body %q", path, code, body)
		}
	}
	code, _, body := get(t, ms, "/debug/health")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("extra endpoint: status %d, body %q", code, body)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", nil); err == nil {
		t.Fatal("want an error for an unbindable address")
	}
}
