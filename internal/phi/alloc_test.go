package phi

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// Allocation regression gates for the state-plane hot path — the
// measured starting line for the ROADMAP's zero-alloc drive. Lookup is
// already allocation-free at steady state; a start/end lifecycle pair
// costs one amortized allocation (slice growth in the per-path report
// window) on the wall clock, and none once the window has stopped
// growing (TestAllocsStartEndCycle). Ceilings, enforced by the CI
// alloc-gate step: tighten them as the paths improve, never loosen
// without a recorded reason.
func TestAllocsServerHotPath(t *testing.T) {
	srv := NewServer(func() sim.Time { return sim.Time(time.Now().UnixNano()) }, ServerConfig{})
	srv.RegisterPath("p", 1_000_000)
	report := Report{
		Bytes:    1 << 20,
		Duration: 1200 * sim.Millisecond,
		AvgRTT:   40 * sim.Millisecond,
		MinRTT:   31 * sim.Millisecond,
		LossRate: 0.002,
	}
	// Warm to steady state: path registered, report window populated,
	// slices at their working capacity.
	for i := 0; i < 200; i++ {
		if err := srv.ReportStart("p"); err != nil {
			t.Fatal(err)
		}
		if err := srv.ReportEnd("p", report); err != nil {
			t.Fatal(err)
		}
	}

	if got := testing.AllocsPerRun(1000, func() {
		if _, err := srv.Lookup("p"); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Lookup = %.1f allocs/op, pinned max 0 — efficiency regression", got)
	}

	if got := testing.AllocsPerRun(1000, func() {
		if err := srv.ReportStart("p"); err != nil {
			t.Fatal(err)
		}
		if err := srv.ReportEnd("p", report); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("ReportStart+ReportEnd pair = %.1f allocs/op, pinned max 1 — efficiency regression", got)
	} else {
		t.Logf("start+end pair: %.1f allocs/op (pin 1)", got)
	}
}

// TestAllocsStartEndCycle pins the registration FIFO: retiring the oldest
// start by slicing the front off (starts = starts[1:]) gave capacity
// away, so the next ReportStart's append reallocated — one allocation per
// start report on an otherwise idle path, on every replica that wrote
// it. The clock jumps more than a window per operation, so the report
// window stays at one entry and the cycle is the only thing measured;
// each run is a batch of cycles, because AllocsPerRun rounds a fraction
// of an allocation per cycle down to none.
func TestAllocsStartEndCycle(t *testing.T) {
	report := Report{Bytes: 1 << 20, AvgRTT: 40 * sim.Millisecond, MinRTT: 31 * sim.Millisecond}
	for _, standing := range []int{0, 3} { // senders that stay registered throughout
		now := sim.Time(0)
		srv := NewServer(func() sim.Time { now += 11 * sim.Second; return now }, ServerConfig{ActiveTTL: -1})
		for i := 0; i < standing; i++ {
			if err := srv.ReportStart("p"); err != nil {
				t.Fatal(err)
			}
		}
		cycles := func() {
			for i := 0; i < 16; i++ {
				if err := srv.ReportStart("p"); err != nil {
					t.Fatal(err)
				}
				if err := srv.ReportEnd("p", report); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycles()
		if got := testing.AllocsPerRun(100, cycles); got > 0 {
			t.Errorf("%d standing senders: 16 steady-state start+end cycles = %.0f allocs, pinned max 0 — efficiency regression", standing, got)
		}
		if got := srv.ActiveSenders("p"); got != standing {
			t.Errorf("active senders after the cycles = %d, want %d", got, standing)
		}
	}
}

// TestPathStateSize guards the per-path footprint. pathState is exactly
// 128 bytes, a malloc size class of its own; one more word moves it to
// the 144-byte class. The benchmark's wire-wide-refresh workload holds
// 524 288 of them (262 144 paths, each on its home shard and its
// ring-fallback mirror), where that step is ~7 % of live_heap_mb against
// a bound of 0.05 — so a field added here (ROADMAP item 2's window head
// index and running sum, say) has to be paid for by one removed.
func TestPathStateSize(t *testing.T) {
	if got := unsafe.Sizeof(pathState{}); got != 128 {
		t.Errorf("unsafe.Sizeof(pathState{}) = %d, want 128", got)
	}
}
