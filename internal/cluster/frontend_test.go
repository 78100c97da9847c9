package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	healthmon "repro/internal/health"
	"repro/internal/phi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeConn is a controllable shard connection for routing tests.
type fakeConn struct {
	mu      sync.Mutex
	fail    bool
	hang    time.Duration // >0 sleeps before answering
	ctx     phi.Context
	lookups int
	reports int
}

var errInjected = errors.New("injected failure")

func (f *fakeConn) do() error {
	f.mu.Lock()
	fail, hang := f.fail, f.hang
	f.mu.Unlock()
	if hang > 0 {
		time.Sleep(hang)
	}
	if fail {
		return errInjected
	}
	return nil
}

func (f *fakeConn) Lookup(phi.PathKey) (phi.Context, error) {
	f.mu.Lock()
	f.lookups++
	ctx := f.ctx
	f.mu.Unlock()
	if err := f.do(); err != nil {
		return phi.Context{}, err
	}
	return ctx, nil
}

func (f *fakeConn) report() error {
	f.mu.Lock()
	f.reports++
	f.mu.Unlock()
	return f.do()
}

func (f *fakeConn) ReportStart(phi.PathKey) error                { return f.report() }
func (f *fakeConn) ReportEnd(phi.PathKey, phi.Report) error      { return f.report() }
func (f *fakeConn) ReportProgress(phi.PathKey, phi.Report) error { return f.report() }

func (f *fakeConn) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *fakeConn) counts() (lookups, reports int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lookups, f.reports
}

// testFrontend builds a frontend over fake conns and returns both.
func testFrontend(t *testing.T, shards int, cfg FrontendConfig) (*Frontend, []*fakeConn) {
	t.Helper()
	fakes := make([]*fakeConn, shards)
	conns := make([]Conn, shards)
	for i := range fakes {
		fakes[i] = &fakeConn{ctx: phi.Context{U: 0.1 * float64(i+1), N: i}}
		conns[i] = fakes[i]
	}
	return NewFrontend(NewRing(shards, 0), conns, cfg), fakes
}

func TestFrontendRoutesToOwner(t *testing.T) {
	f, fakes := testFrontend(t, 4, FrontendConfig{})
	path := phi.PathKey("some-path")
	owner := f.Ring().Owner(path)
	ctx, err := f.Lookup(path)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if want := fakes[owner].ctx; ctx != want {
		t.Errorf("context %v, want owner %d's %v", ctx, owner, want)
	}
	for i, fc := range fakes {
		l, _ := fc.counts()
		if i == owner && l != 1 {
			t.Errorf("owner shard saw %d lookups, want 1", l)
		}
		if i != owner && l != 0 {
			t.Errorf("non-owner shard %d saw %d lookups, want 0", i, l)
		}
	}
}

func TestFrontendFailoverToFallback(t *testing.T) {
	f, fakes := testFrontend(t, 4, FrontendConfig{})
	path := phi.PathKey("some-path")
	owner, fb := f.Ring().OwnerAndFallback(path)
	fakes[owner].setFail(true)
	ctx, err := f.Lookup(path)
	if err != nil {
		t.Fatalf("Lookup should fail over, got %v", err)
	}
	if want := fakes[fb].ctx; ctx != want {
		t.Errorf("context %v, want fallback %d's %v", ctx, fb, want)
	}
	if st := f.Stats(); st.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", st.Failovers)
	}
}

func TestFrontendDegradesWhenBothDown(t *testing.T) {
	f, fakes := testFrontend(t, 4, FrontendConfig{})
	path := phi.PathKey("some-path")
	owner, fb := f.Ring().OwnerAndFallback(path)
	fakes[owner].setFail(true)
	fakes[fb].setFail(true)
	if _, err := f.Lookup(path); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("err = %v, want ErrAllReplicasDown", err)
	}
	if st := f.Stats(); st.Degraded != 1 {
		t.Errorf("Degraded = %d, want 1", st.Degraded)
	}

	// The phi.Client contract on top of that error: defaults, no panic.
	client := &phi.Client{Source: f, Policy: phi.DefaultPolicy(), Path: path}
	params := client.ParamsForNewConnection()
	if params != phi.DefaultPolicy().Default {
		t.Errorf("degraded client params = %v, want policy default", params)
	}
	if client.Fallbacks != 1 {
		t.Errorf("client.Fallbacks = %d, want 1", client.Fallbacks)
	}
}

func TestFrontendBreakerSkipsAndRecovers(t *testing.T) {
	f, fakes := testFrontend(t, 4, FrontendConfig{DownAfter: 3, Cooldown: time.Minute})
	now := time.Unix(1000, 0)
	f.now = func() time.Time { return now }

	path := phi.PathKey("some-path")
	owner, _ := f.Ring().OwnerAndFallback(path)
	fakes[owner].setFail(true)

	for i := 0; i < 5; i++ {
		f.Lookup(path) // served by fallback; owner fails accrue
	}
	if !f.ShardDown(owner) {
		t.Fatal("owner should be marked down after repeated failures")
	}
	calls, _ := fakes[owner].counts()
	if calls != 3 {
		t.Errorf("owner called %d times, want exactly DownAfter=3 before the breaker opens", calls)
	}

	// Heal the shard; before the cooldown expires it must stay skipped.
	fakes[owner].setFail(false)
	f.Lookup(path)
	if got, _ := fakes[owner].counts(); got != 3 {
		t.Errorf("owner probed during cooldown (%d calls)", got)
	}

	// After the cooldown a probe goes through and the breaker closes.
	now = now.Add(2 * time.Minute)
	if _, err := f.Lookup(path); err != nil {
		t.Fatalf("post-cooldown lookup: %v", err)
	}
	if f.ShardDown(owner) {
		t.Error("breaker should close after a successful probe")
	}
	if got, _ := fakes[owner].counts(); got != 4 {
		t.Errorf("owner calls = %d, want 4 (one probe)", got)
	}
}

func TestFrontendReplicatesReports(t *testing.T) {
	f, fakes := testFrontend(t, 4, FrontendConfig{ReplicateReports: true})
	path := phi.PathKey("some-path")
	owner, fb := f.Ring().OwnerAndFallback(path)
	if err := f.ReportStart(path); err != nil {
		t.Fatalf("ReportStart: %v", err)
	}
	if err := f.ReportEnd(path, phi.Report{Bytes: 1}); err != nil {
		t.Fatalf("ReportEnd: %v", err)
	}
	if _, r := fakes[owner].counts(); r != 2 {
		t.Errorf("owner reports = %d, want 2", r)
	}
	if _, r := fakes[fb].counts(); r != 2 {
		t.Errorf("fallback reports = %d, want 2 (mirrored)", r)
	}
	if st := f.Stats(); st.Mirrored != 2 {
		t.Errorf("Mirrored = %d, want 2", st.Mirrored)
	}
}

func TestFrontendTimeout(t *testing.T) {
	f, fakes := testFrontend(t, 2, FrontendConfig{Timeout: 10 * time.Millisecond})
	path := phi.PathKey("p")
	owner, fb := f.Ring().OwnerAndFallback(path)
	fakes[owner].mu.Lock()
	fakes[owner].hang = 200 * time.Millisecond
	fakes[owner].mu.Unlock()

	start := time.Now()
	ctx, err := f.Lookup(path)
	if err != nil {
		t.Fatalf("Lookup should time out on the owner and fail over: %v", err)
	}
	if want := fakes[fb].ctx; ctx != want {
		t.Errorf("context %v, want fallback's %v", ctx, want)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("lookup took %v; the timeout did not cut the hung shard off", elapsed)
	}
}

func TestFrontendReportFailover(t *testing.T) {
	f, fakes := testFrontend(t, 4, FrontendConfig{})
	path := phi.PathKey("some-path")
	owner, fb := f.Ring().OwnerAndFallback(path)
	fakes[owner].setFail(true)
	if err := f.ReportEnd(path, phi.Report{Bytes: 9, Duration: sim.Second}); err != nil {
		t.Fatalf("ReportEnd should fail over: %v", err)
	}
	if _, r := fakes[fb].counts(); r != 1 {
		t.Errorf("fallback reports = %d, want 1", r)
	}
	fakes[fb].setFail(true)
	if err := f.ReportEnd(path, phi.Report{}); !errors.Is(err, ErrAllReplicasDown) {
		t.Errorf("err = %v, want ErrAllReplicasDown", err)
	}
}

// A one-shard ring has no fallback (`phi-cluster -shards 1`), and the
// routing rule for it is the same for every operation: a failed owner
// call degrades. Reports used to return the raw shard error and count
// nothing.
func TestFrontendNoFallbackDegrades(t *testing.T) {
	cl := New(Config{Shards: 1})
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	cl.Trace(tracer)
	mon := healthmon.NewMonitor(healthmon.Config{Shards: 1})
	cl.Health(mon)
	cl.Shards[0].Crash()

	f := cl.Frontend
	ops := []struct {
		span string
		call func() error
	}{
		{"frontend.lookup", func() error { _, err := f.Lookup("p"); return err }},
		{"frontend.report_start", func() error { return f.ReportStart("p") }},
		{"frontend.report_progress", func() error { return f.ReportProgress("p", phi.Report{Bytes: 1}) }},
		{"frontend.report_end", func() error { return f.ReportEnd("p", phi.Report{Bytes: 1}) }},
	}
	for i, op := range ops {
		if err := op.call(); !errors.Is(err, ErrAllReplicasDown) {
			t.Errorf("%s: err = %v, want ErrAllReplicasDown", op.span, err)
		}
		want := uint64(i + 1)
		if got := f.Stats().Degraded; got != want {
			t.Errorf("%s: Degraded = %d, want %d", op.span, got, want)
		}
		if got := mon.Snapshot().Routing.Degraded; got != want {
			t.Errorf("%s: monitor saw %d degraded routings, want %d", op.span, got, want)
		}
	}
	notes := make(map[string]string)
	for _, tc := range tracer.Collector().Errors() {
		for _, sp := range tc.Spans {
			notes[sp.Name] = sp.Note
		}
	}
	for _, op := range ops {
		if got, want := notes[op.span], "degraded tried=[0]"; got != want {
			t.Errorf("%s span note = %q, want %q", op.span, got, want)
		}
	}
}
