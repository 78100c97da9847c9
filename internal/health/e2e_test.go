package health_test

// End-to-end test of the live health pipeline over real TCP: a phiwire
// server fronts a 1-shard cluster with a health monitor attached at the
// wire server and the frontend (the daemon's wiring at -shards 1), a
// phi-load-style workload drives structured grid paths over the wire,
// and mid-run one slice of the workload goes dark — the fault mode
// phi-load injects with -fault-match. The monitor must detect the dip
// within the configured window, localize it to the suppressed slice,
// surface it at /debug/health, emit a structured alert record, and
// bump the telemetry counters; when the slice comes back, the anomaly
// must resolve.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/health"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	"repro/internal/telemetry"
	tlog "repro/internal/trace/log"
)

// syncBuffer is a goroutine-safe log sink (the monitor's rotation
// goroutine writes alerts concurrently with test reads).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// e2eSnapshot decodes the /debug/health fields the test asserts on.
type e2eSnapshot struct {
	Status string `json:"status"`
	Active []struct {
		Scope        string `json:"scope"`
		Depth        float64
		Localization string            `json:"localization"`
		Pinned       map[string]string `json:"pinned"`
	} `json:"active_anomalies"`
	Recent []struct {
		Scope string `json:"scope"`
	} `json:"recent_anomalies"`
}

func getHealth(t *testing.T, url string) e2eSnapshot {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var snap e2eSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /debug/health: %v", err)
	}
	return snap
}

func TestEndToEndFaultDetectionOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second TCP e2e")
	}

	const (
		bucket   = 100 * time.Millisecond
		badSlice = "svc-0/isp-1/metro-1"
	)

	var logBuf syncBuffer
	logger := tlog.New(&logBuf, tlog.LevelInfo)
	reg := telemetry.NewRegistry()

	mon := health.NewMonitor(health.Config{
		BucketDur:       bucket,
		Buckets:         64,
		WarmupBuckets:   5,
		SustainBuckets:  2,
		RecoverBuckets:  2,
		DiagnosisPeriod: 6,
		DiagnoseEvery:   2,
	})
	mon.SetLogger(logger.Component("health"))
	mon.SetMetrics(health.NewMetrics(reg))
	stopMon := mon.Start()
	defer stopMon()

	cl := cluster.New(cluster.Config{
		Shards: 1,
		Clock:  func() sim.Time { return sim.Time(time.Now().UnixNano()) },
	})
	cl.Health(mon)
	srv := phiwire.NewServer(cl.Frontend, nil)
	srv.SetHealth(mon)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	defer srv.Close()

	ms, err := telemetry.Serve("127.0.0.1:0", reg,
		telemetry.Endpoint{Path: "/debug/health", Handler: mon.Handler()})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	healthURL := fmt.Sprintf("http://%s/debug/health", ms.Addr())

	// phi-load-style workload: one worker per slice of a 1x2x2 grid,
	// each running the full connection lifecycle over its own TCP
	// connection. suppress[i] is the fault switch for worker i.
	slices := []string{
		"svc-0/isp-0/metro-0", "svc-0/isp-0/metro-1",
		"svc-0/isp-1/metro-0", badSlice,
	}
	var suppress [4]atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, sl := range slices {
		wg.Add(1)
		go func(i int, sl string) {
			defer wg.Done()
			cl := phiwire.Dial(ln.Addr().String(), 2*time.Second)
			defer cl.Close()
			path := phi.PathKey(sl + "/p-" + fmt.Sprint(i))
			rep := phi.Report{
				Bytes: 1 << 16, Duration: 50 * sim.Millisecond,
				AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond,
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if suppress[i].Load() {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if _, err := cl.Lookup(path); err != nil {
					return // listener closed under us; test is ending
				}
				if err := cl.ReportStart(path); err != nil {
					return
				}
				if err := cl.ReportEnd(path, rep); err != nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i, sl)
	}
	defer func() { close(stop); wg.Wait() }()

	// Warm the baselines well past warmup and the diagnosis period.
	time.Sleep(15 * bucket)
	if snap := getHealth(t, healthURL); len(snap.Active) != 0 {
		t.Fatalf("anomalies before the fault: %+v", snap.Active)
	}

	// Inject the fault: the badSlice worker goes silent.
	suppress[3].Store(true)
	faultAt := time.Now()

	// Detection must land within the configured window (warmup is done,
	// so SustainBuckets consecutive bad buckets is the floor); allow a
	// generous multiple for scheduler noise under -race.
	deadline := time.After(40 * bucket)
	var detected e2eSnapshot
detect:
	for {
		select {
		case <-deadline:
			t.Fatalf("no anomaly for %s within 40 buckets; last snapshot: %+v",
				badSlice, getHealth(t, healthURL))
		case <-time.After(bucket / 2):
			snap := getHealth(t, healthURL)
			for _, a := range snap.Active {
				if a.Scope == badSlice {
					detected = snap
					break detect
				}
			}
		}
	}
	t.Logf("detected %s after %v", badSlice, time.Since(faultAt))

	if detected.Status != health.StatusAnomalous {
		t.Fatalf("status = %q during the outage, want %q", detected.Status, health.StatusAnomalous)
	}
	// Only the suppressed slice should be implicated.
	for _, a := range detected.Active {
		if a.Scope != badSlice && a.Scope != "total" {
			t.Errorf("false positive: anomaly on healthy slice %q", a.Scope)
		}
	}

	// Localization: the pins must implicate the suppressed ISP/metro
	// pair. A first sweep over a short history can pin only part of it
	// (e.g. "metro=metro-1 service=svc-0") and sharpen on a later one, so
	// poll until both dimensions are named and fail on the last answer.
	localized, last := false, ""
	for i := 0; i < 20 && !localized; i++ {
		snap := getHealth(t, healthURL)
		for _, a := range snap.Active {
			if a.Scope == badSlice && a.Localization != "" {
				last = a.Localization
				localized = strings.Contains(last, "isp-1") && strings.Contains(last, "metro-1")
			}
		}
		if !localized {
			time.Sleep(bucket)
		}
	}
	if !localized {
		t.Fatalf("localization never implicated isp-1/metro-1; last = %q", last)
	}

	// The alert must exist as a structured log record ...
	if logs := logBuf.String(); !strings.Contains(logs, "anomaly detected") || !strings.Contains(logs, badSlice) {
		t.Fatalf("no structured alert for %s in logs:\n%s", badSlice, logs)
	}
	// ... and as a telemetry counter on /metrics.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "phi_health_anomalies_total") ||
		strings.Contains(string(metrics), "phi_health_anomalies_total 0") {
		t.Fatalf("anomaly counter not incremented:\n%s", metrics)
	}

	// Lift the fault: the anomaly must resolve and move to the recent
	// ring once RecoverBuckets of healthy traffic flow again.
	suppress[3].Store(false)
	deadline = time.After(40 * bucket)
	for {
		snap := getHealth(t, healthURL)
		still := false
		for _, a := range snap.Active {
			if a.Scope == badSlice {
				still = true
			}
		}
		if !still {
			recovered := false
			for _, a := range snap.Recent {
				if a.Scope == badSlice {
					recovered = true
				}
			}
			if !recovered {
				t.Fatalf("anomaly cleared but missing from the recent ring: %+v", snap)
			}
			if logs := logBuf.String(); !strings.Contains(logs, "anomaly resolved") {
				t.Fatalf("no resolution record in logs:\n%s", logs)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("anomaly never resolved after the fault lifted: %+v", snap)
		case <-time.After(bucket / 2):
		}
	}
}
