package fleet

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// Stopping a snapshotter must wait out a periodic save that is still
// running before it returns: otherwise that save's older export can be
// renamed over the final snapshot, and its goroutine outlives the
// daemon's run. The shard's snapshotter and the fleet's are one loop;
// the fleet's used to take the final snapshots without waiting.
//
// The saves here fail (the directory is missing), so each ends in logf,
// and the first logf call is held open: that is the slow save.
func TestSnapshotterStopWaitsForInFlightSave(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	fl := New(Config{Shards: 1})
	starters := map[string]func(string, time.Duration, func(string, ...any)) func(){
		"shard": fl.Members[0].Primary().StartSnapshotter,
		"fleet": fl.StartSnapshotters,
	}
	for name, start := range starters {
		t.Run(name, func(t *testing.T) {
			var (
				calls    atomic.Int32
				released atomic.Bool
				entered  = make(chan struct{})
				release  = make(chan struct{})
			)
			stop := start(missing, time.Millisecond, func(string, ...any) {
				if calls.Add(1) == 1 {
					close(entered)
					<-release
				}
			})
			<-entered
			time.AfterFunc(50*time.Millisecond, func() {
				released.Store(true)
				close(release)
			})
			stop()
			if !released.Load() {
				t.Fatal("stop returned while a periodic save was still in flight")
			}
			if calls.Load() < 2 {
				t.Error("stop took no final snapshot")
			}
			stop() // a second stop is a no-op
		})
	}
}
