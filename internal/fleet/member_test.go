package fleet

import (
	"errors"
	"testing"

	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/sim"
)

// feedMember pushes a deterministic workload at one path through the
// member's Conn surface, advancing the frozen clock.
func feedMember(t *testing.T, m *Member, path phi.PathKey, now *sim.Time, rounds int) {
	t.Helper()
	m.RegisterPath(path, 10_000_000)
	for i := 0; i < rounds; i++ {
		*now += 100 * sim.Millisecond
		if err := m.ReportStart(path); err != nil {
			t.Fatalf("ReportStart: %v", err)
		}
		*now += 200 * sim.Millisecond
		if err := m.ReportEnd(path, phi.Report{
			Bytes:  50_000,
			AvgRTT: 120 * sim.Millisecond,
			MinRTT: 100 * sim.Millisecond,
		}); err != nil {
			t.Fatalf("ReportEnd: %v", err)
		}
	}
}

func newTestMember() (*Member, *sim.Time) {
	now := new(sim.Time)
	return NewMember(0, func() sim.Time { return *now }, phi.ServerConfig{}, 0), now
}

// Under a frozen clock, synchronous mirroring keeps the backup
// bit-identical to the primary: the replication invariant the promotion
// protocol rests on.
func TestMirroredBackupExactEquivalence(t *testing.T) {
	m, now := newTestMember()
	feedMember(t, m, "path-a", now, 5)
	feedMember(t, m, "path-b", now, 3)

	if err := EquivalentStates(m.Primary().Export(), m.Backup().Export(), true); err != nil {
		t.Fatalf("mirrored backup diverged: %v", err)
	}
	st := m.Status()
	if st.Mirrored == 0 || st.MirrorErrors != 0 {
		t.Fatalf("mirroring counters off: %+v", st)
	}
}

// A dead primary costs nothing at the member surface: the live backup
// answers lookups and absorbs reports until the controller promotes it.
func TestBackupServesWhilePrimaryDown(t *testing.T) {
	m, now := newTestMember()
	feedMember(t, m, "path-a", now, 5)

	before, err := m.Lookup("path-a")
	if err != nil {
		t.Fatalf("Lookup before crash: %v", err)
	}

	m.KillPrimary()
	got, err := m.Lookup("path-a")
	if err != nil {
		t.Fatalf("Lookup with primary down: %v", err)
	}
	if got != before {
		t.Fatalf("backup served %+v, primary had %+v", got, before)
	}
	*now += 100 * sim.Millisecond
	if err := m.ReportStart("path-a"); err != nil {
		t.Fatalf("ReportStart with primary down: %v", err)
	}
	if st := m.Status(); st.BackupServed < 2 {
		t.Fatalf("BackupServed = %d, want >= 2", st.BackupServed)
	}
}

// Promotion swaps the caught-up backup in as primary; a subsequent sync
// reseeds the dead ex-primary and restores exact equivalence.
func TestPromoteThenResync(t *testing.T) {
	m, now := newTestMember()
	feedMember(t, m, "path-a", now, 5)
	want := m.Backup().Export() // the state the promoted replica carries

	m.KillPrimary()
	if err := m.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if m.Primary().Down() {
		t.Fatal("promoted primary should be up")
	}
	if err := EquivalentStates(m.Primary().Export(), want, true); err != nil {
		t.Fatalf("promoted primary lost state: %v", err)
	}

	// The new backup (dead ex-primary) catches up via snapshot transfer.
	if err := m.SyncBackup(); err != nil {
		t.Fatalf("SyncBackup: %v", err)
	}
	if err := EquivalentStates(m.Primary().Export(), m.Backup().Export(), true); err != nil {
		t.Fatalf("reseeded backup diverged: %v", err)
	}

	// Replication is live again: new reports mirror to the new backup.
	feedMember(t, m, "path-a", now, 2)
	if err := EquivalentStates(m.Primary().Export(), m.Backup().Export(), true); err != nil {
		t.Fatalf("post-promotion mirroring diverged: %v", err)
	}
	if st := m.Status(); st.Promotions != 1 || st.Syncs == 0 {
		t.Fatalf("counters: %+v", st)
	}
}

// Promoting a stale or dead backup must refuse: serving wrong context
// silently is worse than degrading loudly.
func TestPromoteRefusesDeadBackup(t *testing.T) {
	m, now := newTestMember()
	feedMember(t, m, "path-a", now, 2)
	m.KillBackup()
	// The backup dies silently; the next mirrored report discovers it.
	feedMember(t, m, "path-a", now, 1)
	if err := m.Promote(); !errors.Is(err, ErrNoLiveBackup) {
		t.Fatalf("Promote with dead backup: err = %v, want ErrNoLiveBackup", err)
	}
}

// When a mirror fails, reports buffer; a full sync replays them and the
// replicas converge exactly (the snapshot covers everything up to the
// sync point, the replay covers the rest).
func TestMirrorFailureBuffersAndReplays(t *testing.T) {
	m, now := newTestMember()
	feedMember(t, m, "path-a", now, 3)

	m.KillBackup()
	feedMember(t, m, "path-a", now, 4) // first report discovers the dead backup
	st := m.Status()
	if st.MirrorErrors != 1 {
		t.Fatalf("MirrorErrors = %d, want 1", st.MirrorErrors)
	}
	if st.BackupLive {
		t.Fatal("backup should be demoted after a mirror failure")
	}
	if st.PendingReplay == 0 {
		t.Fatal("reports should buffer while the backup is down")
	}

	if err := m.SyncBackup(); err != nil {
		t.Fatalf("SyncBackup: %v", err)
	}
	if err := EquivalentStates(m.Primary().Export(), m.Backup().Export(), true); err != nil {
		t.Fatalf("backup diverged after catch-up: %v", err)
	}
	st = m.Status()
	if !st.BackupLive || st.Syncs != 1 {
		t.Fatalf("post-sync status: %+v", st)
	}
}

// The replay buffer is bounded: overflow drops the oldest records and
// counts them, and a full sync clears the debt.
func TestReplayBufferBounded(t *testing.T) {
	now := new(sim.Time)
	m := NewMember(0, func() sim.Time { return *now }, phi.ServerConfig{}, 4)
	m.KillBackup()
	feedMember(t, m, "path-a", now, 6) // 12 reports against a cap of 4
	st := m.Status()
	if st.PendingReplay != 4 {
		t.Fatalf("PendingReplay = %d, want the cap (4)", st.PendingReplay)
	}
	if st.ReplayDropped == 0 {
		t.Fatal("overflow should count dropped records")
	}
	if err := m.SyncBackup(); err != nil {
		t.Fatalf("SyncBackup: %v", err)
	}
	// The sync snapshots the primary at the current seq, so the dropped
	// records are inside the snapshot and the replicas still converge.
	if err := EquivalentStates(m.Primary().Export(), m.Backup().Export(), true); err != nil {
		t.Fatalf("backup diverged despite drops: %v", err)
	}
}

// RestartPrimary rehydrates from the newest on-disk snapshot when one
// exists, and the follow-up sync rebuilds the backup from it.
func TestRestartPrimaryFromSnapshot(t *testing.T) {
	m, now := newTestMember()
	feedMember(t, m, "path-a", now, 5)
	before, _ := m.Lookup("path-a")

	dir := t.TempDir()
	if err := m.SaveSnapshot(dir); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	m.KillBackup()
	m.KillPrimary()
	restored, err := m.RestartPrimary(dir)
	if err != nil || !restored {
		t.Fatalf("RestartPrimary: restored=%v err=%v", restored, err)
	}
	got, err := m.Lookup("path-a")
	if err != nil {
		t.Fatalf("Lookup after restart: %v", err)
	}
	if got != before {
		t.Fatalf("restored context %+v != pre-crash %+v", got, before)
	}
	if err := m.SyncBackup(); err != nil {
		t.Fatalf("SyncBackup: %v", err)
	}
	if err := EquivalentStates(m.Primary().Export(), m.Backup().Export(), true); err != nil {
		t.Fatalf("backup diverged after restart: %v", err)
	}
}

// Promotion moves the quality tracker from the demoted replica to the
// promoted one while lookups are in flight on both: the hand-over must
// not race the hot path's read of the hook (it bites under -race only).
func TestPromoteUnderLookupsDoesNotRaceQualityHook(t *testing.T) {
	m, now := newTestMember()
	q := quality.New(quality.Config{})
	m.SetQuality(q)
	feedMember(t, m, "path-a", now, 3)

	// The lookups set the length of the test, so the promotions are sure
	// to overlap them however the goroutines are scheduled.
	const lookups = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < lookups; i++ {
			if _, err := m.Lookup("path-a"); err != nil {
				t.Errorf("Lookup: %v", err)
				return
			}
		}
	}()
	for promoting := true; promoting; {
		select {
		case <-done:
			promoting = false
		default:
		}
		if err := m.Promote(); err != nil {
			t.Fatalf("Promote: %v", err)
		}
		if err := m.SyncBackup(); err != nil {
			t.Fatalf("SyncBackup: %v", err)
		}
	}
	<-done
	// The tracker followed the serving role. (Not every lookup is
	// classified: one that picked its replica just before a promotion
	// lands on the demoted one, whose hook is already detached.)
	if fresh, stale, fallback := q.CoverageCounts(); fresh+stale+fallback < lookups/2 {
		t.Fatalf("%d of %d lookups classified", fresh+stale+fallback, lookups)
	}
}
