package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	tlog "repro/internal/trace/log"
)

// TestMain lets a test re-execute this binary as phi-load itself, so
// exit codes and start-up ordering are asserted on the real main.
func TestMain(m *testing.M) {
	if os.Getenv("PHI_LOAD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// jsonEndpoint mounts a fixed JSON document, standing in for one of the
// daemon's debug handlers. doc is the daemon's own snapshot type for that
// endpoint (a json.RawMessage where phi-load only embeds the bytes), so
// the documents phi-load decodes here are the ones the daemon encodes.
func jsonEndpoint(t *testing.T, path string, doc any) telemetry.Endpoint {
	t.Helper()
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return telemetry.Endpoint{Path: path, Desc: "test", Handler: http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) { w.Write(body) })}
}

// debugTarget serves the real telemetry.Serve index (so the format
// resolveDebug parses is the one the daemon publishes) over the given
// extra endpoints, and returns its base URL.
func debugTarget(t *testing.T, extra ...telemetry.Endpoint) string {
	t.Helper()
	ms, err := telemetry.Serve("127.0.0.1:0", nil, extra...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return "http://" + ms.Addr().String()
}

// closedAddr returns a loopback address nothing is listening on.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestResolveDebugRequiresWhatTheModeNeeds(t *testing.T) {
	fleetEP := jsonEndpoint(t, "/debug/fleet", fleet.FleetStatus{})
	healthEP := jsonEndpoint(t, "/debug/health", health.Snapshot{Status: "ok"})
	cases := []struct {
		name      string
		endpoints []telemetry.Endpoint
		mut       func(*runConfig)
		want      string // substring of the one expected error; "" = accepted
	}{
		{"plain run needs nothing", nil, func(*runConfig) {}, ""},
		{"chaos with fleet listed", []telemetry.Endpoint{fleetEP}, func(c *runConfig) { c.Chaos = true }, ""},
		{"chaos without fleet", []telemetry.Endpoint{healthEP}, func(c *runConfig) { c.Chaos = true }, "-chaos needs /debug/fleet"},
		{"fault detection with health listed", []telemetry.Endpoint{healthEP}, func(c *runConfig) { c.FaultMatch = "isp-1" }, ""},
		{"fault detection without health", []telemetry.Endpoint{fleetEP}, func(c *runConfig) { c.FaultMatch = "isp-1" }, "-fault-match detection needs /debug/health"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			cfg.DebugURL = debugTarget(t, tc.endpoints...) + "/" // trailing slash tolerated
			tc.mut(&cfg)
			errs := resolveDebug(&cfg, &satParams{})
			if tc.want == "" {
				if len(errs) != 0 {
					t.Fatalf("rejected: %v", errs)
				}
				if cfg.Chaos && !strings.HasSuffix(cfg.ChaosURL, "/debug/fleet") {
					t.Fatalf("ChaosURL = %q", cfg.ChaosURL)
				}
				if cfg.FaultMatch != "" && !strings.HasSuffix(cfg.HealthURL, "/debug/health") {
					t.Fatalf("HealthURL = %q", cfg.HealthURL)
				}
				return
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
				t.Fatalf("want one error mentioning %q, got %v", tc.want, errs)
			}
		})
	}

	// Both missing: both named, in one pass.
	cfg := base()
	cfg.DebugURL = debugTarget(t)
	cfg.Chaos, cfg.FaultMatch = true, "isp-1"
	if errs := resolveDebug(&cfg, &satParams{}); len(errs) != 2 {
		t.Fatalf("want 2 accumulated errors, got %v", errs)
	}

	// Something that answers HTTP but is not a debug index.
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, `{"ok":true}`) })}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	defer srv.Close()
	cfg = base()
	cfg.DebugURL = "http://" + ln.Addr().String()
	if errs := resolveDebug(&cfg, &satParams{}); len(errs) != 1 || !strings.Contains(errs[0].Error(), "not a debug endpoint index") {
		t.Fatalf("non-index base: %v", errs)
	}
}

func TestValidateChaosRequiresDebugURL(t *testing.T) {
	cfg := base()
	cfg.Chaos, cfg.ChaosKills, cfg.ChaosBoundS = true, 1, 5
	errs := cfg.validate()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "-chaos requires -debug-url") {
		t.Fatalf("want the -debug-url complaint, got %v", errs)
	}
	cfg.DebugURL = "http://127.0.0.1:7732"
	if errs := cfg.validate(); len(errs) != 0 {
		t.Fatalf("chaos with -debug-url rejected: %v", errs)
	}
}

// wireTarget is a bare context server on loopback for the load to hit.
func wireTarget(t *testing.T) (srv *phiwire.Server, addr string) {
	t.Helper()
	backend := phi.NewServer(func() sim.Time { return sim.Time(time.Now().UnixNano()) }, phi.ServerConfig{})
	srv = phiwire.NewServer(backend, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestSaturateEmbedsScrapesThroughDebugBase runs a one-step ramp against
// a live wire server whose debug base lists stages, resources and
// context: all three must land in the result, fetched through URLs
// derived from the index, and an endpoint the index does not list must
// be skipped rather than fetched.
func TestSaturateEmbedsScrapesThroughDebugBase(t *testing.T) {
	_, addr := wireTarget(t)
	dbg := debugTarget(t,
		jsonEndpoint(t, "/debug/stages", json.RawMessage(`{"stages":[{"stage":"planted"}]}`)),
		jsonEndpoint(t, "/debug/context", quality.Snapshot{
			Coverage:     quality.CoverageSnapshot{Fresh: 7},
			StalestPaths: []quality.StalePath{{Path: "planted"}}}))

	cfg := base()
	cfg.Addr, cfg.Mode, cfg.Conns, cfg.MaxInflight = addr, "saturate", 2, 8
	cfg.DebugURL = dbg
	sp := satParams{StartRate: 200, MaxRate: 300, StepFactor: 2, StepS: 0.2,
		KneeRatio: 3, KneeConfirm: 2, KneeMinAchieved: 0.9, ProfileS: 0}
	if errs := append(append(cfg.validate(), sp.validate()...), resolveDebug(&cfg, &sp)...); len(errs) != 0 {
		t.Fatalf("rejected: %v", errs)
	}
	if sp.ResourcesURL != "" || sp.PprofURL != "" {
		t.Fatalf("unlisted / switched-off scrapes were derived: resources %q pprof %q", sp.ResourcesURL, sp.PprofURL)
	}

	res := runSaturate(cfg, sp, "path-", "", nil, tlog.New(io.Discard, tlog.LevelError))
	if len(res.Steps) != 1 || res.Steps[0].Lifecycles == 0 {
		t.Fatalf("want one measured step with traffic, got %+v", res.Steps)
	}
	if !strings.Contains(string(res.StagesServer), "planted") {
		t.Fatalf("stages not embedded: %s", res.StagesServer)
	}
	if !strings.Contains(string(res.Context), "planted") {
		t.Fatalf("context not embedded: %s", res.Context)
	}
	if res.ResourcesServer != nil || res.Profiles != nil {
		t.Fatalf("unlisted scrapes embedded: resources %s profiles %+v", res.ResourcesServer, res.Profiles)
	}
	// The JSON keys bench-diff and the committed baseline rely on.
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"stages_server"`, `"context"`, `"knee"`, `"steps"`, `"max_sustainable_rate"`} {
		if !strings.Contains(string(enc), key) {
			t.Errorf("result JSON lost %s", key)
		}
	}

	// With -profile-dur > 0 the pprof base is the debug base itself.
	sp.ProfileS = 1
	if errs := resolveDebug(&cfg, &sp); len(errs) != 0 || sp.PprofURL != dbg {
		t.Fatalf("PprofURL = %q (errs %v), want %q", sp.PprofURL, errs, dbg)
	}
}

// TestUnreachableDebugBaseFailsBeforeAnyLoad runs the real main: a
// -debug-url nobody listens on must exit 2 with the rest of start-up
// validation, before a single request reaches the (live) wire server.
func TestUnreachableDebugBaseFailsBeforeAnyLoad(t *testing.T) {
	srv, addr := wireTarget(t)
	cmd := exec.Command(os.Args[0],
		"-addr", addr, "-mode", "open", "-rate", "-1",
		"-duration", "200ms", "-warmup", "0s",
		"-debug-url", "http://"+closedAddr(t))
	cmd.Env = append(os.Environ(), "PHI_LOAD_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v\n%s", err, out)
	}
	// Reported together with the unrelated bad knob, not instead of it.
	for _, want := range []string{"-debug-url:", "-rate must be > 0"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stderr lacks %q:\n%s", want, out)
		}
	}
	if handled, rejected := srv.Stats(); handled+rejected != 0 {
		t.Fatalf("wire server saw %d requests before validation failed", handled+rejected)
	}
}

// TestRetiredBenchModeIsRejected runs the real main: the in-process
// ingest benchmark mode and its flag are gone (BenchmarkPipelineIngest
// and TestPipelineOverloadShedsAndCounts in internal/ingest hold those
// numbers), so asking for either is a usage error.
func TestRetiredBenchModeIsRejected(t *testing.T) {
	for _, args := range [][]string{{"-mode", "ipfixbench"}, {"-bench-reps", "1"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "PHI_LOAD_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("phi-load %v: want exit 2, got %v\n%s", args, err, out)
		}
	}
}
