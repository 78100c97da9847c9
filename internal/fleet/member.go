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

// reportKind discriminates the three replayable report operations.
type reportKind uint8

const (
	reportStart reportKind = iota
	reportEnd
	reportProgress
)

// reportRecord is one mirrored report in the catch-up buffer: everything
// needed to replay the operation into a backup that was being reseeded
// while the report arrived.
type reportRecord struct {
	seq  uint64
	kind reportKind
	path phi.PathKey
	rep  phi.Report
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

// replicas returns the current primary/backup pair and the backup's
// liveness under a consistent read.
func (m *Member) replicas() (primary, backup *cluster.Shard, live bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primary, m.backup, m.backupLive
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

// Lookup implements cluster.Conn.
func (m *Member) Lookup(path phi.PathKey) (phi.Context, error) {
	return m.LookupSpan(trace.SpanContext{}, path)
}

// LookupSpan implements cluster.TracedConn (the zero context is the
// untraced call): the primary answers; if it is down and the backup is
// live, the backup answers instead — a crashed primary costs zero failed
// lookups, not a failover round trip at the frontend.
func (m *Member) LookupSpan(sc trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	p, b, live := m.replicas()
	ctx, err := p.LookupSpan(sc, path)
	if err == nil {
		return ctx, nil
	}
	if errors.Is(err, cluster.ErrShardDown) && live {
		if bctx, berr := b.LookupSpan(sc, path); berr == nil {
			m.backupServed.Add(1)
			if mt := m.metrics; mt != nil {
				mt.BackupServed.Inc()
			}
			return bctx, nil
		}
	}
	return ctx, err
}

// applyReport dispatches one report operation to a shard under sc (the
// zero context for an untraced report or a catch-up replay).
func applyReport(s *cluster.Shard, sc trace.SpanContext, kind reportKind, path phi.PathKey, rep phi.Report) error {
	switch kind {
	case reportStart:
		return s.ReportStartSpan(sc, path)
	case reportEnd:
		return s.ReportEndSpan(sc, path, rep)
	default:
		return s.ReportProgressSpan(sc, path, rep)
	}
}

// deliver routes one report: primary first (mirroring to the backup),
// live backup if the primary is down. The whole operation holds m.mu so
// the mirror stream reaching the backup is the exact sequence the
// primary applied — order is what makes the replicas equivalent.
func (m *Member) deliver(sc trace.SpanContext, kind reportKind, path phi.PathKey, rep phi.Report) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++

	apply := func(s *cluster.Shard) error { return applyReport(s, sc, kind, path, rep) }

	if err := apply(m.primary); err != nil {
		if !errors.Is(err, cluster.ErrShardDown) {
			return err
		}
		// Primary down: the live backup is the copy of record until the
		// controller promotes it. No mirroring — it IS the only copy.
		if !m.backupLive {
			return err
		}
		if berr := apply(m.backup); berr != nil {
			return err // report the primary's error; the backup just died too
		}
		m.backupServed.Add(1)
		if mt := m.metrics; mt != nil {
			mt.BackupServed.Inc()
		}
		return nil
	}

	// Mirror to the backup; failures demote it to not-live (buffering
	// starts) but never fail the report — replication is best-effort
	// between syncs, exactly like the frontend's report mirroring.
	if m.backupLive {
		if merr := apply(m.backup); merr != nil {
			m.mirrorErrs.Add(1)
			m.backupLive = false
			if mt := m.metrics; mt != nil {
				mt.MirrorErrors.Inc()
			}
			m.buffer(kind, path, rep)
		} else {
			m.mirrored.Add(1)
			if mt := m.metrics; mt != nil {
				mt.Mirrored.Inc()
			}
		}
		return nil
	}
	m.buffer(kind, path, rep)
	return nil
}

// buffer queues one mirrored report for catch-up replay. Caller holds m.mu.
func (m *Member) buffer(kind reportKind, path phi.PathKey, rep phi.Report) {
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
	m.pending = append(m.pending, reportRecord{seq: m.seq, kind: kind, path: path, rep: rep})
}

// ReportStart implements cluster.Conn.
func (m *Member) ReportStart(path phi.PathKey) error {
	return m.deliver(trace.SpanContext{}, reportStart, path, phi.Report{})
}

// ReportEnd implements cluster.Conn.
func (m *Member) ReportEnd(path phi.PathKey, r phi.Report) error {
	return m.deliver(trace.SpanContext{}, reportEnd, path, r)
}

// ReportProgress implements cluster.Conn.
func (m *Member) ReportProgress(path phi.PathKey, r phi.Report) error {
	return m.deliver(trace.SpanContext{}, reportProgress, path, r)
}

// ReportStartSpan implements cluster.TracedConn.
func (m *Member) ReportStartSpan(sc trace.SpanContext, path phi.PathKey) error {
	return m.deliver(sc, reportStart, path, phi.Report{})
}

// ReportEndSpan implements cluster.TracedConn.
func (m *Member) ReportEndSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	return m.deliver(sc, reportEnd, path, r)
}

// ReportProgressSpan implements cluster.TracedConn.
func (m *Member) ReportProgressSpan(sc trace.SpanContext, path phi.PathKey, r phi.Report) error {
	return m.deliver(sc, reportProgress, path, r)
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
		if err := applyReport(backup, trace.SpanContext{}, r.kind, r.path, r.rep); err != nil {
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
