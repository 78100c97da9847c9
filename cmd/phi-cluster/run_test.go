package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/health"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	tlog "repro/internal/trace/log"
)

// TestMain lets a test re-execute this binary as phi-cluster itself, so
// signal handling and exit codes are asserted on the real main.
func TestMain(m *testing.M) {
	if os.Getenv("PHI_CLUSTER_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is a goroutine-safe log sink.
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

// testClock is the injected estimator clock: the test sets it before
// each request, the daemon's shards read it while handling.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() sim.Time           { return sim.Time(c.ns.Load()) }
func (c *testClock) advance(d sim.Time)      { c.ns.Add(int64(d)) }
func newTestClock(start sim.Time) *testClock { c := &testClock{}; c.ns.Store(int64(start)); return c }

// daemon is one in-process run of the daemon on loopback :0 listeners.
type daemon struct {
	addrs addrs
	logs  *syncBuffer
	stop  func() error // cancels run's context and waits for it to return
}

// startDaemon parses args exactly as main would, injects clock, and
// runs the daemon until stop is called (or the test ends).
func startDaemon(t *testing.T, clock *testClock, args ...string) *daemon {
	t.Helper()
	cfg, errs := parseFlags(append([]string{"-listen", "127.0.0.1:0"}, args...))
	if len(errs) != 0 {
		t.Fatalf("parseFlags(%v): %v", args, errs)
	}
	cfg.clock = clock.now
	d := &daemon{logs: &syncBuffer{}}
	ctx, cancel := context.WithCancelCause(context.Background())
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, cfg, tlog.New(d.logs, tlog.LevelInfo), func(a addrs) { ready <- a })
	}()
	var once sync.Once
	var stopErr error
	d.stop = func() error {
		once.Do(func() {
			cancel(fmt.Errorf("test stop"))
			stopErr = <-done
		})
		return stopErr
	}
	t.Cleanup(func() { d.stop() })
	select {
	case d.addrs = <-ready:
	case err := <-done:
		done <- err
		t.Fatalf("daemon exited before ready: %v\n%s", err, d.logs)
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready\n%s", d.logs)
	}
	return d
}

// equivPaths is the path universe of the equivalence sequence; the
// first half has a registered capacity (so u is exercised), the rest
// do not.
const equivPaths = 16

func equivKey(i int) phi.PathKey { return phi.PathKey(fmt.Sprintf("dst-/24-%d", i)) }

func equivPathFlags() []string {
	var args []string
	for i := 0; i < equivPaths/2; i++ {
		args = append(args, "-path", fmt.Sprintf("%s=%d", equivKey(i), 10_000_000*(i+1)))
	}
	return args
}

// newBareServer is the reference model: one plain phi.Server on the same
// clock, configured as the daemon configures each shard by default.
func newBareServer(clock *testClock) *phi.Server {
	bare := phi.NewServer(clock.now, phi.ServerConfig{Window: 10 * sim.Second})
	for i := 0; i < equivPaths/2; i++ {
		bare.RegisterPath(equivKey(i), int64(10_000_000*(i+1)))
	}
	return bare
}

// driveEquivalence applies one seeded sequence of n lookups, starts,
// progress reports and end reports to the bare server and, over the
// wire, to the daemon behind cl — advancing the shared clock before each
// operation — and demands that every lookup returns the identical
// phi.Context from both. It returns how many lookups were compared.
func driveEquivalence(t *testing.T, cl *phiwire.Client, bare *phi.Server, clock *testClock, seed int64, n int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lookups := 0
	for op := 0; op < n; op++ {
		clock.advance(sim.Time(rng.Intn(40)+1) * sim.Millisecond)
		path := equivKey(rng.Intn(equivPaths))
		rep := phi.Report{
			Bytes:    int64(rng.Intn(2_000_000) + 1),
			Duration: sim.Time(rng.Intn(900)+100) * sim.Millisecond,
			MinRTT:   sim.Time(rng.Intn(40)+20) * sim.Millisecond,
			LossRate: float64(rng.Intn(5)) / 100,
		}
		rep.AvgRTT = rep.MinRTT + sim.Time(rng.Intn(30))*sim.Millisecond
		var berr, werr error
		switch k := rng.Intn(10); {
		case k < 4:
			want, err1 := bare.Lookup(path)
			got, err2 := cl.Lookup(path)
			berr, werr = err1, err2
			lookups++
			if got != want {
				t.Fatalf("op %d (seed %d): lookup %s: daemon %v != bare server %v", op, seed, path, got, want)
			}
		case k < 6:
			berr, werr = bare.ReportStart(path), cl.ReportStart(path)
		case k < 8:
			berr, werr = bare.ReportProgress(path, rep), cl.ReportProgress(path, rep)
		default:
			berr, werr = bare.ReportEnd(path, rep), cl.ReportEnd(path, rep)
		}
		if berr != nil || werr != nil {
			t.Fatalf("op %d (seed %d): bare err %v, wire err %v", op, seed, berr, werr)
		}
	}
	return lookups
}

// TestOneShardDaemonMatchesBareServer is the proof that licenses
// deleting the standalone server binary: through the daemon's real
// loopback socket, `-shards 1` answers every lookup of a 12 000-op
// seeded sequence exactly as a bare phi.Server does (the comparison
// TestClusterMatchesMonolithManyPaths makes in-process).
func TestOneShardDaemonMatchesBareServer(t *testing.T) {
	clock := newTestClock(sim.Second)
	d := startDaemon(t, clock, append(equivPathFlags(), "-shards", "1")...)
	cl := phiwire.Dial(d.addrs.wire, 5*time.Second)
	defer cl.Close()

	const ops = 12_000
	lookups := driveEquivalence(t, cl, newBareServer(clock), clock, 20180815, ops)
	if lookups < ops/4 {
		t.Fatalf("only %d of %d ops were lookups", lookups, ops)
	}
	cl.Close()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	// A 1-shard ring has no fallback: the frontend must have been a pure
	// pass-through.
	logs := d.logs.String()
	if !strings.Contains(logs, fmt.Sprintf("requests=%d", ops)) ||
		!strings.Contains(logs, "failovers=0 degraded=0") {
		t.Fatalf("served summary does not show %d clean pass-through requests:\n%s", ops, logs)
	}
}

// debugQuery supplies the query a listed debug path needs to answer 200
// quickly; every other listed path is fetched bare.
var debugQuery = map[string]string{
	"/debug/shard":         "?id=0",
	"/debug/pprof/profile": "?seconds=1",
	"/debug/pprof/trace":   "?seconds=1",
}

// TestDaemonModes is the daemon's own acceptance test over every
// deployment shape it can assemble: the wire protocol serves a full
// seeded lifecycle mix that still matches the bare server lookup for
// lookup, the policy is published, every debug endpoint the index lists
// answers, the mode-specific endpoints are listed exactly when their
// mode is on, and cancelling the context leaves no goroutine behind.
func TestDaemonModes(t *testing.T) {
	client := &http.Client{Timeout: 15 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(t *testing.T, url string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	modes := []struct {
		name  string
		args  []string
		fleet bool
	}{
		{"shards=1", []string{"-shards", "1"}, false},
		{"shards=4", []string{"-shards", "4"}, false},
		{"fleet", []string{"-shards", "4", "-fleet", "-fleet-poll", "50ms"}, true},
	}
	for _, mode := range modes {
		for _, ipfixOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ipfix=%v", mode.name, ipfixOn), func(t *testing.T) {
				before := runtime.NumGoroutine()

				args := append(equivPathFlags(), mode.args...)
				args = append(args, "-metrics-addr", "127.0.0.1:0", "-stages", "-health",
					"-prof-ring-dir", t.TempDir())
				if ipfixOn {
					args = append(args, "-ipfix-addr", "127.0.0.1:0")
				}
				clock := newTestClock(sim.Second)
				d := startDaemon(t, clock, args...)
				if d.addrs.metrics == "" || (d.addrs.ipfix != "") != ipfixOn {
					t.Fatalf("bound addresses %+v do not match the configuration", d.addrs)
				}

				cl := phiwire.Dial(d.addrs.wire, 5*time.Second)
				pol, err := cl.FetchPolicy()
				if err != nil || len(pol.Rules) != len(phi.DefaultPolicy().Rules) {
					t.Fatalf("FetchPolicy: %v (policy %+v)", err, pol)
				}
				if n := driveEquivalence(t, cl, newBareServer(clock), clock, 7, 1200); n == 0 {
					t.Fatal("no lookups compared")
				}
				cl.Close()

				// Every listed path answers; mode-specific ones are listed
				// exactly when their mode is on.
				base := "http://" + d.addrs.metrics
				status, body := get(t, base+"/debug/")
				var idx struct {
					Endpoints []struct{ Path string } `json:"endpoints"`
				}
				if err := json.Unmarshal(body, &idx); status != http.StatusOK || err != nil || len(idx.Endpoints) == 0 {
					t.Fatalf("GET /debug/: %d %v\n%s", status, err, body)
				}
				listed := map[string]bool{}
				for _, e := range idx.Endpoints {
					listed[e.Path] = true
					if status, body := get(t, base+e.Path+debugQuery[e.Path]); status != http.StatusOK {
						t.Errorf("GET %s: %d\n%.200s", e.Path, status, body)
					}
				}
				if listed["/debug/fleet"] != mode.fleet {
					t.Errorf("/debug/fleet listed = %v in mode %s", listed["/debug/fleet"], mode.name)
				}
				if listed["/debug/ingest"] != ipfixOn {
					t.Errorf("/debug/ingest listed = %v with ipfix %v", listed["/debug/ingest"], ipfixOn)
				}
				for _, always := range []string{"/metrics", "/debug/health", "/debug/context", "/debug/stages", "/debug/resources", "/debug/shard"} {
					if !listed[always] {
						t.Errorf("%s not listed", always)
					}
				}

				if err := d.stop(); err != nil {
					t.Fatalf("run returned %v", err)
				}
				if !strings.Contains(d.logs.String(), "served") {
					t.Errorf("no served summary:\n%s", d.logs)
				}
				// Everything run started must be gone. Goroutines wind down
				// asynchronously after their stop signal, so poll.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if after := runtime.NumGoroutine(); after > before {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines before run, %d after it returned:\n%s",
						before, after, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}

// TestHealthEndpointListedOnlyWhenMonitoring pins the index contract
// phi-load's start-up validation relies on: /debug/health is listed
// exactly when a monitor is running behind it.
func TestHealthEndpointListedOnlyWhenMonitoring(t *testing.T) {
	for _, healthOn := range []bool{false, true} {
		args := []string{"-shards", "1", "-metrics-addr", "127.0.0.1:0", "-prof-ring-dir", t.TempDir()}
		if healthOn {
			args = append(args, "-health")
		}
		d := startDaemon(t, newTestClock(sim.Second), args...)
		resp, err := http.Get("http://" + d.addrs.metrics + "/debug/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := strings.Contains(string(body), `"/debug/health"`); got != healthOn {
			t.Errorf("-health=%v: /debug/health listed = %v", healthOn, got)
		}
		d.stop()
	}
}

// TestHealthShowsSnapshotAges: with -snapshot-dir, /debug/health carries
// every shard's snapshot age in both deployment shapes. The plain
// cluster's assembly used to leave the source uninstalled, so the field
// appeared only with -fleet.
func TestHealthShowsSnapshotAges(t *testing.T) {
	for _, mode := range [][]string{{"-shards", "4"}, {"-shards", "4", "-fleet"}} {
		t.Run(strings.Join(mode, ""), func(t *testing.T) {
			args := append(mode, "-health", "-metrics-addr", "127.0.0.1:0", "-prof-ring-dir", t.TempDir(),
				"-snapshot-dir", t.TempDir(), "-snapshot-interval", "10ms")
			d := startDaemon(t, newTestClock(sim.Second), args...)
			var snap health.Snapshot
			aged := 0
			for deadline := time.Now().Add(5 * time.Second); aged < 4 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
				resp, err := http.Get("http://" + d.addrs.metrics + "/debug/health")
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				aged = 0
				for _, sh := range snap.Shards {
					if sh.SnapshotAgeS != nil {
						aged++
					}
				}
			}
			if aged != 4 {
				t.Errorf("%d of 4 shards report a snapshot age at /debug/health: %+v", aged, snap.Shards)
			}
		})
	}
}

// TestCancelTakesFinalSnapshotAndRestores is the orderly-stop contract:
// cancelling run's context (what SIGINT and SIGTERM do) writes every
// shard's final snapshot after the last report has landed, and a
// restart on the same directory serves the same contexts.
func TestCancelTakesFinalSnapshotAndRestores(t *testing.T) {
	for _, mode := range [][]string{{"-shards", "4"}, {"-shards", "4", "-fleet"}} {
		t.Run(strings.Join(mode, ""), func(t *testing.T) {
			dir := t.TempDir()
			// An hour between periodic snapshots: only the final one can
			// have written the files.
			args := append(append(equivPathFlags(), mode...), "-snapshot-dir", dir, "-snapshot-interval", "1h")
			clock := newTestClock(sim.Second)
			d := startDaemon(t, clock, args...)
			cl := phiwire.Dial(d.addrs.wire, 5*time.Second)
			driveEquivalence(t, cl, newBareServer(clock), clock, 3, 800)
			want := make([]phi.Context, equivPaths)
			for i := range want {
				ctx, err := cl.Lookup(equivKey(i))
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ctx
			}
			lastReport := time.Now()
			if err := cl.ReportStart(equivKey(0)); err != nil {
				t.Fatal(err)
			}
			want[0].N++ // the start just reported
			cl.Close()

			if err := d.stop(); err != nil {
				t.Fatal(err)
			}
			for shard := 0; shard < 4; shard++ {
				st, err := os.Stat(cluster.SnapshotPath(dir, shard))
				if err != nil {
					t.Fatalf("shard %d: no final snapshot: %v", shard, err)
				}
				// Coarse file-system timestamps may round down.
				if st.ModTime().Before(lastReport.Truncate(time.Second)) {
					t.Errorf("shard %d snapshot (%v) predates the last report (%v)", shard, st.ModTime(), lastReport)
				}
			}
			logs := d.logs.String()
			if !strings.Contains(logs, "shutting down") || !strings.Contains(logs, "served") {
				t.Errorf("orderly-stop log lines missing:\n%s", logs)
			}

			// Restart on the same directory and clock.
			d2 := startDaemon(t, clock, args...)
			if !strings.Contains(d2.logs.String(), "rehydrated shards from snapshots") {
				t.Errorf("restart did not rehydrate:\n%s", d2.logs)
			}
			cl2 := phiwire.Dial(d2.addrs.wire, 5*time.Second)
			defer cl2.Close()
			for i, w := range want {
				got, err := cl2.Lookup(equivKey(i))
				if err != nil {
					t.Fatal(err)
				}
				if got != w {
					t.Errorf("path %d after restart: %v, want %v", i, got, w)
				}
			}
		})
	}
}

// TestRunReportsBootErrors: a boot failure comes back as run's error
// (main turns it into a fatal log line), not a panic or a hang.
func TestRunReportsBootErrors(t *testing.T) {
	logger := tlog.New(io.Discard, tlog.LevelError)
	cfg, _ := parseFlags([]string{"-listen", "256.0.0.1:bogus"})
	if err := run(context.Background(), cfg, logger, nil); err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("unbindable -listen: %v", err)
	}
	cfg, _ = parseFlags([]string{"-listen", "127.0.0.1:0", "-policy", "/no/such/policy.json"})
	if err := run(context.Background(), cfg, logger, nil); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("missing -policy file: %v", err)
	}
}

// TestMainStopsInOrderOnSIGTERM drives the real binary: SIGTERM (what
// `kill`, the Makefile traps and every init system send) must produce
// the final snapshots and the served summary, exactly like SIGINT.
func TestMainStopsInOrderOnSIGTERM(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		t.Run(sig.String(), func(t *testing.T) {
			dir := t.TempDir()
			var stderr syncBuffer
			cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-shards", "2",
				"-snapshot-dir", dir, "-snapshot-interval", "1h")
			cmd.Env = append(os.Environ(), "PHI_CLUSTER_TEST_MAIN=1")
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()

			listening := regexp.MustCompile(`msg=listening addr=(\S+)`)
			var addr string
			for deadline := time.Now().Add(10 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
				if m := listening.FindStringSubmatch(stderr.String()); m != nil {
					addr = strings.Trim(m[1], `"`)
				}
			}
			if addr == "" {
				t.Fatalf("daemon never logged its address:\n%s", &stderr)
			}
			cl := phiwire.Dial(addr, 5*time.Second)
			if err := cl.ReportStart("p"); err != nil {
				t.Fatal(err)
			}
			cl.Close()

			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("exit after %v: %v\n%s", sig, err, &stderr)
			}
			for shard := 0; shard < 2; shard++ {
				if _, err := os.Stat(cluster.SnapshotPath(dir, shard)); err != nil {
					t.Errorf("shard %d: no final snapshot after %v: %v", shard, sig, err)
				}
			}
			logs := stderr.String()
			if !strings.Contains(logs, "msg=served") || !strings.Contains(logs, "reports=1") {
				t.Errorf("no served summary after %v:\n%s", sig, logs)
			}
		})
	}
}

// TestMainExitsTwoOnBadFlags: the panic this replaces lived on a
// snapshotter goroutine, minutes of uptime away from the typo.
func TestMainExitsTwoOnBadFlags(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-snapshot-dir", t.TempDir(), "-snapshot-interval", "0", "-shards", "0")
	cmd.Env = append(os.Environ(), "PHI_CLUSTER_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got %v\n%s", err, out)
	}
	for _, want := range []string{"-snapshot-interval must be > 0", "-shards must be >= 1"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stderr lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "panic") {
		t.Errorf("panicked:\n%s", out)
	}

	// The two dedicated debug listeners were folded into -metrics-addr.
	for _, gone := range []string{"-health-addr", "-fleet-addr"} {
		cmd := exec.Command(os.Args[0], gone, "127.0.0.1:0")
		cmd.Env = append(os.Environ(), "PHI_CLUSTER_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: want exit 2, got %v\n%s", gone, err, out)
		}
	}
}
