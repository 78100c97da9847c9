package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors surfaced by member operations (controller actions report them
// in the audit log; they never reach the data path).
var (
	// ErrNoLiveBackup means a promotion was requested but the backup is
	// down or has not caught up; the only remediation left is a restart.
	ErrNoLiveBackup = errors.New("fleet: no live backup to promote")
	// ErrPrimaryDown means a state sync was requested while the primary
	// (the copy of record) is down.
	ErrPrimaryDown = errors.New("fleet: primary down, nothing to sync from")
)

// reportRecord is one mirrored report in the catch-up buffer: the
// operation itself, to replay into a backup that was being reseeded
// while the report arrived.
type reportRecord struct {
	seq uint64
	op  phi.Op
}

// DefaultReplayBuffer bounds the mirrored-report catch-up buffer. Past
// it the oldest entries are dropped and counted; a full resync (which
// starts from a fresh snapshot anyway) clears the debt.
const DefaultReplayBuffer = 8192

// Member is one replicated slot of the fleet: a primary shard serving
// the slot's keyspace and a live backup shadowing it. It implements
// cluster.Conn (and the traced facet), so the frontend routes to it
// exactly as it would to a bare shard — the replication is invisible to
// the routing layer until it saves a request.
//
// Replication protocol:
//
//   - Every report delivered to the primary is synchronously mirrored to
//     the backup — the same mirroring discipline as the frontend's
//     ReplicateReports, applied to a dedicated whole-keyspace replica
//     instead of the per-path ring fallback.
//   - While the backup is down or being reseeded, mirrored reports are
//     buffered (bounded, counted drops) and replayed during catch-up.
//   - Periodic full-state sync transfers the primary's versioned
//     Snapshot into the backup and replays the reports that arrived
//     mid-transfer, so drift from missed mirrors is bounded by the sync
//     interval.
//   - If the primary dies, lookups and reports are served by the live
//     backup immediately (no request is lost waiting for the
//     controller); the controller then promotes the backup to primary
//     and reseeds a fresh backup behind it.
type Member struct {
	// Index is the member's slot in the ring, fixed at construction.
	Index int

	mu      sync.Mutex
	primary *cluster.Shard
	backup  *cluster.Shard
	// backupLive is true while the backup is caught up and receiving
	// synchronous mirrors; false from the moment a mirror fails (or a
	// reseed starts) until the next successful sync.
	backupLive bool
	// seq numbers every report accepted by the member, so catch-up can
	// replay exactly the records a snapshot transfer did not cover.
	seq uint64
	// pending buffers mirrored reports while the backup is not live.
	pending    []reportRecord
	pendingCap int

	// Counters are atomics so Status never blocks the data path.
	backupServed  atomic.Uint64 // operations the backup answered while the primary was down
	mirrored      atomic.Uint64 // reports applied to the live backup
	mirrorErrs    atomic.Uint64 // mirror attempts that failed (backup demoted to not-live)
	replayed      atomic.Uint64 // buffered reports replayed during catch-up
	replayDropped atomic.Uint64 // buffered reports lost to the cap
	promotions    atomic.Uint64
	syncs         atomic.Uint64
	lastSync      atomic.Int64 // unix nanos of the last successful full sync

	metrics *Metrics // shared fleet metric set (nil = uninstrumented)

	// quality is the context-quality tracker attached to whichever
	// replica is serving as primary (nil = unmeasured). Only the primary
	// carries the hooks: mirrored reports reaching the backup are copies
	// of evidence the primary already scored, and double-observing them
	// would skew pairing and drift counts.
	quality *quality.Tracker
}

// NewMember builds slot index with a primary and an (empty) backup. The
// backup starts live: both replicas are empty, so they are trivially in
// sync and mirroring begins with the first report.
func NewMember(index int, clock func() sim.Time, cfg phi.ServerConfig, replayBuffer int) *Member {
	if replayBuffer <= 0 {
		replayBuffer = DefaultReplayBuffer
	}
	m := &Member{
		Index:      index,
		primary:    cluster.NewShard(index, clock, cfg),
		backup:     cluster.NewShard(index, clock, cfg),
		backupLive: true,
		pendingCap: replayBuffer,
	}
	return m
}

// Primary returns the shard currently serving as primary (it changes on
// promotion). Exposed for snapshotters and debug handlers.
func (m *Member) Primary() *cluster.Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primary
}

// Backup returns the shard currently standing by as backup.
func (m *Member) Backup() *cluster.Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.backup
}

// SetQuality attaches (or detaches, with nil) the context-quality
// tracker to the member's current primary. Promotions re-apply it to
// the new primary and detach it from the demoted replica, so the
// measurement follows the serving role across failovers.
func (m *Member) SetQuality(q *quality.Tracker) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.quality = q
	m.primary.SetQuality(q)
	m.backup.SetQuality(nil)
}

// do is the member's one body, the primary→backup rule: the primary
// answers; if it is down and the backup is live, the backup answers
// instead — a crashed primary costs zero failed operations, not a
// failover round trip at the frontend — and is the copy of record until
// the controller promotes it. A report the primary took is mirrored to
// the backup.
func (m *Member) do(sc trace.SpanContext, op phi.Op) (phi.Context, error) {
	report := op.Kind != phi.OpLookup
	m.mu.Lock()
	p, b, live := m.primary, m.backup, m.backupLive
	if report {
		// A report holds m.mu to the end, so the mirror stream reaching
		// the backup is the exact sequence the primary applied — order is
		// what makes the replicas equivalent. A lookup orders nothing.
		defer m.mu.Unlock()
		m.seq++
	} else {
		m.mu.Unlock()
	}
	ctx, err := op.Do(sc, p, p)
	if err != nil {
		if !errors.Is(err, cluster.ErrShardDown) || !live {
			return ctx, err
		}
		bctx, berr := op.Do(sc, b, b)
		if berr != nil {
			return ctx, err // report the primary's error; the backup just died too
		}
		m.backupServed.Add(1)
		if mt := m.metrics; mt != nil {
			mt.BackupServed.Inc()
		}
		return bctx, nil
	}
	if report {
		m.mirror(sc, op)
	}
	return ctx, nil
}

// mirror copies a report the primary applied to the backup. Failures
// demote the backup to not-live (buffering starts) but never fail the
// report — replication is best-effort between syncs, exactly like the
// frontend's report mirroring. Caller holds m.mu.
func (m *Member) mirror(sc trace.SpanContext, op phi.Op) {
	if m.backupLive {
		if _, err := op.Do(sc, m.backup, m.backup); err == nil {
			m.mirrored.Add(1)
			if mt := m.metrics; mt != nil {
				mt.Mirrored.Inc()
			}
			return
		}
		m.mirrorErrs.Add(1)
		m.backupLive = false
		if mt := m.metrics; mt != nil {
			mt.MirrorErrors.Inc()
		}
	}
	// Queue for catch-up replay.
	if len(m.pending) >= m.pendingCap {
		// Drop oldest: catch-up starts from a fresh snapshot, so losing
		// old buffered entries only matters if the snapshot predates
		// them — and a resync always snapshots at current seq.
		copy(m.pending, m.pending[1:])
		m.pending = m.pending[:len(m.pending)-1]
		m.replayDropped.Add(1)
		if mt := m.metrics; mt != nil {
			mt.ReplayDropped.Inc()
		}
	}
	m.pending = append(m.pending, reportRecord{seq: m.seq, op: op})
}

// Lookup implements cluster.Conn.
func (m *Member) Lookup(path phi.PathKey) (phi.Context, error) {
	return m.LookupSpan(trace.SpanContext{}, path)
}

// LookupSpan implements cluster.TracedConn (the zero context is the
// untraced call).
func (m *Member) LookupSpan(sc trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	return m.do(sc, phi.Op{Kind: phi.OpLookup, Path: path})
}

// ReportStart implements cluster.Conn.
func (m *Member) ReportStart(path phi.PathKey) error {
	return m.ReportStartSpan(trace.SpanContext{}, path)
}

// ReportStartSpan implements cluster.TracedConn.
func (m *Member) ReportStartSpan(sc trace.SpanContext, path phi.PathKey) error {
	_, err := m.do(sc, phi.Op{Kind: phi.OpReportStart, Path: path})
	return err
}

// ReportEnd implements cluster.Conn.
func (m *Member) ReportEnd(path phi.PathKey, r phi.Report) error {
	return m.ReportEndSpan(trace.SpanContext{}, path, r)
}

// ReportEndSpan implements cluster.TracedConn.
func (m *Member) ReportEndSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	_, err := m.do(sc, phi.Op{Kind: phi.OpReportEnd, Path: path, Report: r})
	return err
}

// ReportProgress implements cluster.Conn.
func (m *Member) ReportProgress(path phi.PathKey, r phi.Report) error {
	return m.ReportProgressSpan(trace.SpanContext{}, path, r)
}

// ReportProgressSpan implements cluster.TracedConn.
func (m *Member) ReportProgressSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	_, err := m.do(sc, phi.Op{Kind: phi.OpReportProgress, Path: path, Report: r})
	return err
}

// RegisterPath declares a path capacity on both replicas, so a promoted
// backup computes calibrated utilization exactly like the primary did.
func (m *Member) RegisterPath(path phi.PathKey, capacityBps int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.primary.RegisterPath(path, capacityBps)
	m.backup.RegisterPath(path, capacityBps)
}

// Promote swaps the live backup in as primary — the failover half of the
// promotion protocol. The dead ex-primary becomes the (down) backup
// slot; SyncBackup reseeds it from the new primary. Fails if the backup
// is down or was not caught up (promoting a stale replica would serve
// wrong context silently, which is worse than degrading loudly).
func (m *Member) Promote() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.backup.Down() || !m.backupLive {
		return ErrNoLiveBackup
	}
	m.primary, m.backup = m.backup, m.primary
	// The new backup (the dead ex-primary) has nothing; buffered entries
	// were destined for the promoted replica, which already has them.
	m.backupLive = false
	m.pending = m.pending[:0]
	// Quality hooks follow the serving role.
	m.primary.SetQuality(m.quality)
	m.backup.SetQuality(nil)
	m.promotions.Add(1)
	if mt := m.metrics; mt != nil {
		mt.Promotions.Inc()
	}
	return nil
}

// SyncBackup is the full-state catch-up: transfer the primary's
// versioned snapshot into the backup (restarting it if it was down),
// then replay the reports that arrived while the transfer ran. On
// return the backup is live and mirroring resumes. This one routine
// serves three roles: the periodic anti-drift sync, the reseed after a
// promotion, and the rebuild after a backup crash.
func (m *Member) SyncBackup() error {
	m.mu.Lock()
	if m.primary.Down() {
		m.mu.Unlock()
		return ErrPrimaryDown
	}
	// Snapshot at the current seq: every buffered entry at or below it
	// is inside the snapshot already, so only records buffered after
	// this instant need replay.
	snap := m.primary.TakeSnapshot()
	m.pending = m.pending[:0]
	m.backupLive = false // mirrors buffer into pending from here on
	backup := m.backup
	m.mu.Unlock()

	start := time.Now()
	// Restore outside the lock: a large keyspace transfer must not stall
	// the data path (reports keep flowing, buffering into pending).
	if err := backup.RestoreSnapshot(snap); err != nil {
		return fmt.Errorf("fleet: reseed backup %d: %w", m.Index, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.pending {
		if _, err := r.op.Do(trace.SpanContext{}, backup, backup); err != nil {
			// The backup died mid-replay; leave it not-live for the
			// controller's next pass.
			return fmt.Errorf("fleet: replay into backup %d: %w", m.Index, err)
		}
		m.replayed.Add(1)
		if mt := m.metrics; mt != nil {
			mt.Replayed.Inc()
		}
	}
	m.pending = m.pending[:0]
	m.backupLive = true
	m.syncs.Add(1)
	m.lastSync.Store(time.Now().UnixNano())
	if mt := m.metrics; mt != nil {
		mt.Syncs.Inc()
		mt.SyncSeconds.Observe(time.Since(start))
	}
	return nil
}

// RestartPrimary brings a dead primary back — the last-resort
// remediation when backup and primary are both gone. State comes from
// the newest on-disk snapshot under snapDir when one exists ("" or a
// missing/corrupt file restarts empty; losing the window of state since
// the last snapshot beats staying down). Returns whether disk state was
// restored.
func (m *Member) RestartPrimary(snapDir string) (restored bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.primary.Down() {
		return false, nil
	}
	if snapDir != "" {
		ok, lerr := m.primary.LoadSnapshot(snapDir)
		if lerr == nil && ok {
			restored = true
		}
		err = lerr // reported to the audit log; empty restart continues
	}
	if m.primary.Down() {
		m.primary.Restart()
	}
	// Whatever the backup held predates the outage decision; reseed.
	m.backupLive = false
	m.pending = m.pending[:0]
	return restored, err
}

// KillPrimary crashes the current primary (chaos injection).
func (m *Member) KillPrimary() { m.Primary().Crash() }

// KillBackup crashes the current backup (chaos injection). The next
// mirror attempt demotes it to not-live and buffering starts.
func (m *Member) KillBackup() { m.Backup().Crash() }

// SaveSnapshot persists the current primary's state under dir in the
// standard per-shard snapshot format (the same file a plain cluster
// writes, so fleet and non-fleet deployments share snapshot dirs).
func (m *Member) SaveSnapshot(dir string) error { return m.Primary().SaveSnapshot(dir) }

// LoadSnapshot rehydrates the primary from its file under dir, then
// reseeds the backup so both replicas restart warm.
func (m *Member) LoadSnapshot(dir string) (bool, error) {
	ok, err := m.Primary().LoadSnapshot(dir)
	if err != nil || !ok {
		return ok, err
	}
	return true, m.SyncBackup()
}

// MemberStatus is one member's instantaneous view, served at /debug/fleet.
type MemberStatus struct {
	Index        int  `json:"index"`
	PrimaryUp    bool `json:"primary_up"`
	BackupUp     bool `json:"backup_up"`
	BackupLive   bool `json:"backup_live"` // caught up + receiving mirrors
	PrimaryPaths int  `json:"primary_paths"`
	BackupPaths  int  `json:"backup_paths"`

	Promotions    uint64 `json:"promotions"`
	BackupServed  uint64 `json:"backup_served"`
	Mirrored      uint64 `json:"mirrored_reports"`
	MirrorErrors  uint64 `json:"mirror_errors"`
	Replayed      uint64 `json:"replayed_reports"`
	PendingReplay int    `json:"pending_replay"`
	ReplayDropped uint64 `json:"replay_dropped"`
	Syncs         uint64 `json:"syncs"`
	// LastSyncAgeS is seconds since the last successful full sync, -1 if
	// none yet.
	LastSyncAgeS float64 `json:"last_sync_age_s"`
}

// Status snapshots the member.
func (m *Member) Status() MemberStatus {
	m.mu.Lock()
	primary, backup, live := m.primary, m.backup, m.backupLive
	pending := len(m.pending)
	m.mu.Unlock()

	st := MemberStatus{
		Index:         m.Index,
		PrimaryUp:     !primary.Down(),
		BackupUp:      !backup.Down(),
		BackupLive:    live,
		PrimaryPaths:  primary.PathCount(),
		BackupPaths:   backup.PathCount(),
		Promotions:    m.promotions.Load(),
		BackupServed:  m.backupServed.Load(),
		Mirrored:      m.mirrored.Load(),
		MirrorErrors:  m.mirrorErrs.Load(),
		Replayed:      m.replayed.Load(),
		PendingReplay: pending,
		ReplayDropped: m.replayDropped.Load(),
		Syncs:         m.syncs.Load(),
		LastSyncAgeS:  -1,
	}
	if ns := m.lastSync.Load(); ns != 0 {
		st.LastSyncAgeS = time.Since(time.Unix(0, ns)).Seconds()
	}
	return st
}
