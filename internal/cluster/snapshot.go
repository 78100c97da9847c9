package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
)

// SnapshotVersion is the current on-disk snapshot format version. Readers
// reject other versions with ErrSnapshotVersion rather than guessing.
const SnapshotVersion = 1

// ErrSnapshotVersion is returned when a snapshot file's version does not
// match SnapshotVersion.
var ErrSnapshotVersion = fmt.Errorf("cluster: unsupported snapshot version (want %d)", SnapshotVersion)

// Snapshot is the serialized state of one shard at one instant. The
// format is versioned JSON: small enough for the per-domain path counts
// the paper contemplates, diffable when debugging, and forward-portable
// behind the Version gate.
type Snapshot struct {
	Version int                `json:"version"`
	Shard   int                `json:"shard"`
	TakenAt sim.Time           `json:"taken_at"`
	Paths   []phi.PathSnapshot `json:"paths"`
}

// TakeSnapshot captures the shard's current state. A down shard yields a
// snapshot with no paths.
func (s *Shard) TakeSnapshot() *Snapshot {
	return &Snapshot{
		Version: SnapshotVersion,
		Shard:   s.ID,
		TakenAt: s.clock(),
		Paths:   s.Export(),
	}
}

// RestoreSnapshot rehydrates the shard from snap and brings it up: the
// crash-recovery half of the snapshotter. Estimates resume from the
// snapshot instant; anything outside the estimation window is pruned by
// the server's normal expiry on first use.
func (s *Shard) RestoreSnapshot(snap *Snapshot) error {
	if snap.Version != SnapshotVersion {
		return ErrSnapshotVersion
	}
	if snap.Shard != s.ID {
		return fmt.Errorf("cluster: snapshot is for shard %d, not %d", snap.Shard, s.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Reset()
	s.srv.ImportState(snap.Paths)
	s.down.Store(false)
	return nil
}

// SnapshotPath returns the canonical snapshot file name for a shard
// within dir.
func SnapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snapshot.json", shard))
}

// WriteSnapshotFile persists snap atomically (temp file + rename), so a
// crash mid-write never corrupts the previous good snapshot.
func WriteSnapshotFile(path string, snap *Snapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadSnapshotFile loads and version-checks a snapshot file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: corrupt snapshot %s: %w", path, err)
	}
	if snap.Version != SnapshotVersion {
		return nil, ErrSnapshotVersion
	}
	return &snap, nil
}

// SaveSnapshot captures the shard's state and writes it under dir.
func (s *Shard) SaveSnapshot(dir string) error {
	s.mu.Lock()
	m := s.snapMetrics
	s.mu.Unlock()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	err := WriteSnapshotFile(SnapshotPath(dir, s.ID), s.TakeSnapshot())
	if err == nil {
		s.lastSnap.Store(time.Now().UnixNano())
	} else {
		// The temp file's name, which is what most write errors carry,
		// does not say whose snapshot it was.
		err = fmt.Errorf("cluster: snapshot shard %d: %w", s.ID, err)
	}
	if m != nil {
		m.Seconds.Observe(time.Since(start))
		if err != nil {
			m.Errors.Inc()
		} else {
			m.Cycles.Inc()
		}
	}
	return err
}

// LoadSnapshot rehydrates the shard from its file under dir, if one
// exists. It returns false (and no error) when there is nothing to load.
func (s *Shard) LoadSnapshot(dir string) (bool, error) {
	snap, err := ReadSnapshotFile(SnapshotPath(dir, s.ID))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, s.RestoreSnapshot(snap)
}

// StartSnapshotter writes the shard's snapshot to dir every interval
// until the returned stop function is called; stop takes a final
// snapshot before returning. Write errors go to logf (nil discards).
func (s *Shard) StartSnapshotter(dir string, interval time.Duration, logf func(string, ...any)) (stop func()) {
	return StartSnapshotLoop(interval, logf, func() error { return s.SaveSnapshot(dir) })
}

// StartSnapshotLoop is the one snapshotter loop, under Shard's
// snapshotter and the fleet's per-member one alike: it calls save every
// interval until the returned stop function is called. stop makes the
// loop take one final save and returns once its goroutine has exited, so
// no earlier save is still writing — an older export can never be
// renamed over the final one — and nothing outlives the call. Calling
// stop again is a no-op. Errors from save go to logf (nil discards).
func StartSnapshotLoop(interval time.Duration, logf func(string, ...any), save func() error) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := save(); err != nil {
					logf("%v", err)
				}
			case <-done:
				if err := save(); err != nil {
					logf("on stop: %v", err)
				}
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
