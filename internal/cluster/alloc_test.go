package cluster

import (
	"testing"

	"repro/internal/phi"
	"repro/internal/sim"
)

// Allocation gate for the routed call (`make alloc-gate`): over
// in-process shards with no Timeout, the frontend adds nothing to what
// phi.Server allocates — Lookup nothing at all, ReportEnd nothing once
// the report window is at its working capacity. Routing used to box the
// operation in a closure per call (two allocations a lookup, one a
// report); the operation is now a value, and this keeps it one.
func TestAllocsFrontendRouting(t *testing.T) {
	for _, replicate := range []bool{false, true} {
		cl := New(Config{Shards: 4, Frontend: FrontendConfig{ReplicateReports: replicate}})
		f := cl.Frontend
		report := phi.Report{Bytes: 1 << 20, Duration: sim.Second, AvgRTT: 40 * sim.Millisecond, MinRTT: 31 * sim.Millisecond}
		// Warm to steady state: path created on owner and fallback, the
		// report window grown past what the measured runs will append.
		for i := 0; i < 4096; i++ {
			if err := f.ReportEnd("p", report); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(1000, func() {
			if _, err := f.Lookup("p"); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("replicate=%v: Frontend.Lookup = %.1f allocs/op, pinned max 0", replicate, got)
		}
		if got := testing.AllocsPerRun(1000, func() {
			if err := f.ReportEnd("p", report); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("replicate=%v: Frontend.ReportEnd = %.1f allocs/op, pinned max 0", replicate, got)
		}
	}
}
