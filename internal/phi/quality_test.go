package phi

import (
	"math/rand"
	"testing"

	"repro/internal/quality"
	"repro/internal/sim"
)

// qualityClock is a manually advanced sim clock for deterministic
// freshness arithmetic.
type qualityClock struct{ now sim.Time }

func (c *qualityClock) fn() func() sim.Time { return func() sim.Time { return c.now } }

func TestServerQualityOutcomes(t *testing.T) {
	clk := &qualityClock{now: sim.Time(1e12)}
	tr := quality.New(quality.Config{})
	srv := NewServer(clk.fn(), ServerConfig{Window: 10 * sim.Second, FreshTTL: 5 * sim.Second})
	srv.SetQuality(tr)

	// No evidence yet: fallback.
	if _, err := srv.Lookup("p"); err != nil {
		t.Fatal(err)
	}
	// Evidence lands; the next lookup is a fresh hit.
	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	clk.now += 1 * sim.Second
	if _, err := srv.Lookup("p"); err != nil {
		t.Fatal(err)
	}
	// Past the TTL: stale hit.
	clk.now += 7 * sim.Second
	if _, err := srv.Lookup("p"); err != nil {
		t.Fatal(err)
	}

	fresh, stale, fallback := tr.CoverageCounts()
	if fresh != 1 || stale != 1 || fallback != 1 {
		t.Fatalf("coverage = %d/%d/%d, want 1 fresh, 1 stale, 1 fallback", fresh, stale, fallback)
	}
	// The fresh lookup sampled a 1s active staleness age.
	snap := tr.Snapshot()
	if n := snap.Freshness["active"].Count; n != 2 {
		t.Fatalf("active staleness samples = %d, want 2 (fresh + stale lookups)", n)
	}
}

func TestServerQualityAccuracyPairing(t *testing.T) {
	clk := &qualityClock{now: sim.Time(1e12)}
	tr := quality.New(quality.Config{})
	srv := NewServer(clk.fn(), ServerConfig{})
	srv.SetQuality(tr)

	// Seed the estimators: minRTT 30ms, q = 10ms → predicted RTT 40ms.
	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond, LossRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	clk.now += sim.Second
	if _, err := srv.Lookup("p"); err != nil {
		t.Fatal(err)
	}
	// The paired report observes 50ms: |err| = 10ms.
	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 50 * sim.Millisecond, MinRTT: 30 * sim.Millisecond, LossRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	a := tr.Snapshot().Accuracy["active"]
	if a.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", a.Pairs)
	}
	if a.RTTAbsErrP90Us < 9000 || a.RTTAbsErrP90Us > 11000 {
		t.Fatalf("rtt_abs_err_p90 = %vus, want ~10000us", a.RTTAbsErrP90Us)
	}
}

func TestServerQualityPassiveSourceAndDrift(t *testing.T) {
	clk := &qualityClock{now: sim.Time(1e12)}
	tr := quality.New(quality.Config{})
	srv := NewServer(clk.fn(), ServerConfig{})
	srv.SetQuality(tr)

	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	clk.now += 2 * sim.Second
	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 45 * sim.Millisecond, MinRTT: 30 * sim.Millisecond, Source: SourcePassive}); err != nil {
		t.Fatal(err)
	}

	// Per-source freshness metadata is distinct.
	var pf quality.PathFreshness
	for _, f := range srv.Freshness() {
		if f.Path == "p" {
			pf = f
		}
	}
	if pf.AgeActiveNs != int64(2*sim.Second) {
		t.Fatalf("age_active = %d, want 2s", pf.AgeActiveNs)
	}
	if pf.AgePassiveNs != 0 {
		t.Fatalf("age_passive = %d, want 0 (just reported)", pf.AgePassiveNs)
	}

	// Drift paired passive (45ms) against active (40ms): +5ms.
	d := tr.Snapshot().Drift
	if d.Pairs != 1 {
		t.Fatalf("drift pairs = %d, want 1", d.Pairs)
	}
	if d.SignedMeanU < 4800 || d.SignedMeanU > 5200 {
		t.Fatalf("drift signed mean = %vus, want ~+5000us", d.SignedMeanU)
	}
}

func TestSnapshotRoundTripPreservesFreshness(t *testing.T) {
	clk := &qualityClock{now: sim.Time(1e12)}
	srv := NewServer(clk.fn(), ServerConfig{})
	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond, LossRate: 0.02}); err != nil {
		t.Fatal(err)
	}
	clk.now += sim.Second
	if err := srv.ReportEnd("p", Report{Bytes: 1 << 20, AvgRTT: 45 * sim.Millisecond, MinRTT: 30 * sim.Millisecond, Source: SourcePassive}); err != nil {
		t.Fatal(err)
	}

	exported := srv.ExportState()
	restored := NewServer(clk.fn(), ServerConfig{})
	restored.ImportState(exported)

	want := srv.Freshness()
	got := restored.Freshness()
	if len(got) != len(want) {
		t.Fatalf("path count %d != %d", len(got), len(want))
	}
	if got[0] != want[0] {
		t.Fatalf("freshness diverged across round trip: %+v != %+v", got[0], want[0])
	}
	// Loss EWMA state must survive too (accuracy pairing depends on it).
	re := restored.ExportState()
	if !re[0].LossInit || re[0].LossEWMA == 0 {
		t.Fatalf("loss EWMA lost in round trip: %+v", re[0])
	}
	if re[0].LastActive != exported[0].LastActive || re[0].LastPassive != exported[0].LastPassive {
		t.Fatalf("last-update metadata lost: %+v != %+v", re[0], exported[0])
	}
}

// TestEvictionUnderZipfTail drives a heavy-tailed path population
// through a bounded server: the bound must hold, evictions must be
// counted, and the hottest paths must survive while the one-hit tail is
// shed.
func TestEvictionUnderZipfTail(t *testing.T) {
	clk := &qualityClock{now: sim.Time(1e12)}
	tr := quality.New(quality.Config{})
	const maxPaths = 128
	srv := NewServer(clk.fn(), ServerConfig{MaxPaths: maxPaths})
	srv.SetQuality(tr)

	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1, 4096)
	names := make(map[uint64]PathKey)
	report := Report{Bytes: 1 << 16, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond}
	for i := 0; i < 20000; i++ {
		clk.now += sim.Millisecond
		id := zipf.Uint64()
		p, ok := names[id]
		if !ok {
			p = PathKey("path-" + string(rune('a'+id%26)) + "-" + itoa(int(id)))
			names[id] = p
		}
		if err := srv.ReportStart(p); err != nil {
			t.Fatal(err)
		}
		if err := srv.ReportEnd(p, report); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.PathCount(); got > maxPaths {
		t.Fatalf("path map grew to %d, bound is %d", got, maxPaths)
	}
	if srv.EvictedPaths() == 0 {
		t.Fatal("no evictions under a 4096-path Zipf tail with a 128-path bound")
	}
	// The head of the Zipf distribution (id 1, the most frequent path)
	// must have survived every eviction batch.
	hot := names[1]
	found := false
	for _, ps := range srv.ExportState() {
		if ps.Path == hot {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("hottest path %q was evicted", hot)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
