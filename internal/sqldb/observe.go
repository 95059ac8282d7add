package sqldb

// The engine's observability layer: engineMetrics aggregates the lock-free
// histograms and counters every hot path records into, Engine.Stats
// assembles them (plus the existing Durability/Health/LockStats surfaces)
// into one stats.Snapshot, and Session.noteStmtDone does per-statement
// latency, rows-returned, and slow-query-log recording.
//
// Placement contract, mechanically enforced by the sqlvet lockorder
// analyzer (rule L4): recording never happens while Engine.mu is held
// exclusively or inside the WAL's ioMu write/fsync critical section.
// Statement latency is recorded after every lock is released and the
// durability wait is over, so it measures what the client experienced.

import (
	"sync/atomic"
	"time"

	"bridgescope/internal/sqldb/stats"
)

// slowLogCap bounds the slow-query ring buffer.
const slowLogCap = 128

// defaultSlowThreshold is the initial slow-query threshold; tune per
// engine with SetSlowQueryThreshold.
const defaultSlowThreshold = 100 * time.Millisecond

// stmtKind buckets statements for the per-kind latency histograms.
type stmtKind int

const (
	kindSelect stmtKind = iota
	kindInsert
	kindUpdate
	kindDelete
	kindTxn
	kindDDL
	kindOther
	numStmtKinds
)

var stmtKindNames = [numStmtKinds]string{"select", "insert", "update", "delete", "txn", "ddl", "other"}

// classifyStmt maps a statement to its latency bucket. EXPLAIN ANALYZE
// executes its inner statement, so it counts as that statement's kind;
// plain EXPLAIN is read-only planning and counts as a select.
func classifyStmt(stmt Stmt) stmtKind {
	if ex, ok := stmt.(*ExplainStmt); ok && ex.Analyze {
		stmt = ex.Stmt
	}
	switch stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		return kindSelect
	case *InsertStmt:
		return kindInsert
	case *UpdateStmt:
		return kindUpdate
	case *DeleteStmt:
		return kindDelete
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return kindTxn
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt, *AlterTableStmt,
		*CreateViewStmt, *DropViewStmt, *GrantStmt, *RevokeStmt:
		return kindDDL
	}
	return kindOther
}

// engineMetrics is the engine's recording surface: plain atomics and
// lock-free histograms, safe to touch from any goroutine with any locks
// held — though rule L4 (see package comment) keeps recording out of the
// exclusive critical sections anyway.
type engineMetrics struct {
	// stmt is the per-kind statement latency histogram set.
	stmt [numStmtKinds]stats.Histogram
	// rowsReturned counts rows handed back to clients (SELECT results).
	rowsReturned atomic.Int64

	// WAL I/O, recorded by the flusher after it leaves ioMu.
	walAppend stats.Histogram // write(2) latency per group flush
	walFsync  stats.Histogram // fsync latency per group flush
	walBatch  stats.Histogram // commits per group flush (group-commit size)

	// lockWait is the write-lock acquisition wait per mutating statement.
	lockWait stats.Histogram

	// Operator fan-outs to more than one worker (see Session.fanout).
	parBatches atomic.Int64
	parMorsels atomic.Int64
	parWorkers stats.Histogram

	// ckptDur is checkpoint wall time (rotate + snapshot + retire).
	ckptDur stats.Histogram

	// degradedTransitions counts healthy→degraded flips (at most one per
	// open engine, but visible across a scrape history).
	degradedTransitions atomic.Int64

	// txnAborts counts transactions poisoned by a write conflict;
	// txnRetries counts client-side retries reported through
	// Engine.NoteTxnRetry (core.RunInTransaction's backoff loop).
	txnAborts  atomic.Int64
	txnRetries atomic.Int64
}

// Stats assembles the engine's full observability snapshot. It is safe to
// call from any goroutine at any time: everything it reads is either
// atomic or guarded by its own short-lived mutex, and it never touches
// Engine.mu.
func (e *Engine) Stats() stats.Snapshot {
	m := &e.metrics
	snap := stats.Snapshot{
		Enabled:        stats.Enabled(),
		Statements:     map[string]stats.HistogramSnapshot{},
		RowsScanned:    e.scanRowsVisited.Load(),
		DMLRowsVisited: e.dmlRowsVisited.Load(),
		RowsReturned:   m.rowsReturned.Load(),
		PlanCache:      e.plans.snapshot(),
	}
	for k := range m.stmt {
		if hs := m.stmt[k].Snapshot(); hs.Count > 0 {
			snap.Statements[stmtKindNames[k]] = hs
		}
	}

	d := e.Durability()
	snap.WAL = stats.WALStats{
		Durable:      d.Durable,
		Mode:         d.Mode,
		Commits:      d.Commits,
		Records:      d.Records,
		Fsyncs:       d.Fsyncs,
		GroupFlushes: d.GroupFlushes,
		WALBytes:     d.WALBytes,
		WALSize:      d.WALSize,
		Segment:      int64(d.Segment),
		LSN:          int64(d.LSN),
		Checkpoints:  d.Checkpoints,
		AppendNs:     m.walAppend.Snapshot(),
		FsyncNs:      m.walFsync.Snapshot(),
		BatchCommits: m.walBatch.Snapshot(),
	}

	last := e.lastCommitTS.Load()
	snap.MVCC = stats.MVCCStats{
		Conflicts: e.writeConflicts.Load(),
		Aborts:    m.txnAborts.Load(),
		Retries:   m.txnRetries.Load(),
		OpenTxns:  e.openTxnCount(),
		// How far the oldest active snapshot trails the commit clock — the
		// version-GC backlog a long-running transaction is holding open.
		GCHorizonLag: int64(last - e.gcHorizon()),
	}

	ls := e.LockStats()
	snap.Locks = stats.LockStats{
		TableAcquires:        ls.TableAcquires,
		GlobalAcquires:       ls.GlobalAcquires,
		MaxConcurrentWriters: ls.MaxConcurrentWriters,
		WaitNs:               m.lockWait.Snapshot(),
	}

	snap.Parallel = stats.ParallelStats{
		Batches: m.parBatches.Load(),
		Morsels: m.parMorsels.Load(),
		Workers: m.parWorkers.Snapshot(),
	}

	ck := m.ckptDur.Snapshot()
	snap.Checkpoint = stats.CheckpointStats{Count: int64(ck.Count), DurationNs: ck}

	h := e.Health()
	snap.Health = stats.HealthStats{
		Degraded:          h.Degraded,
		Reason:            h.Reason,
		Transitions:       m.degradedTransitions.Load(),
		LastCheckpointErr: h.LastCheckpointErr,
	}

	if e.slow != nil {
		snap.SlowLog = stats.SlowLogStats{
			ThresholdNs: e.slow.Threshold().Nanoseconds(),
			Total:       e.slow.Total(),
			Entries:     e.slow.Entries(),
		}
	}
	return snap
}

// SetSlowQueryThreshold sets the duration at or above which statements are
// recorded in the slow-query log. Zero records every statement; a negative
// threshold disables the log.
func (e *Engine) SetSlowQueryThreshold(d time.Duration) { e.slow.SetThreshold(d) }

// SlowQueryThreshold returns the current slow-query threshold.
func (e *Engine) SlowQueryThreshold() time.Duration { return e.slow.Threshold() }

// SlowQueries returns the retained slow-query log entries, oldest first.
func (e *Engine) SlowQueries() []stats.SlowQuery { return e.slow.Entries() }

// NoteTxnRetry records one client-side transaction retry; the core
// adapter's backoff loop calls it so retry pressure is visible engine-side.
func (e *Engine) NoteTxnRetry() { e.metrics.txnRetries.Add(1) }

// noteStmtDone records a finished statement: its latency histogram, the
// rows-returned counter, the session's retry streak, and — when the
// statement had SQL text and crossed the threshold — a slow-query entry
// with the rendered plan. Called with no locks held.
func (s *Session) noteStmtDone(stmt Stmt, sql string, start time.Time, res *Result, err error) {
	d := time.Since(start)
	e := s.engine
	if stats.Enabled() {
		e.metrics.stmt[classifyStmt(stmt)].Observe(d)
		if err == nil && res != nil && len(res.Rows) > 0 {
			e.metrics.rowsReturned.Add(int64(len(res.Rows)))
		}
	}
	if err != nil && IsRetryable(err) {
		// The client is expected to retry this statement/transaction; the
		// streak is drained into the next successful statement's slow-log
		// entry so a conflict-thrashing query is visible as such.
		s.retryStreak.Add(1)
		return
	}
	retries := s.retryStreak.Swap(0)
	slow := e.slow
	if err != nil || slow == nil || sql == "" || !slow.ShouldRecord(d) {
		return
	}
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	entry := stats.SlowQuery{
		Time:       time.Now(),
		User:       s.user,
		SQL:        sql,
		DurationNs: d.Nanoseconds(),
		Rows:       rows,
		Retries:    retries,
	}
	// Best-effort plan: re-planned against the current catalog (the
	// statement itself already finished and released its locks). Statements
	// without plans (DDL, transaction control) log without one.
	if p, perr := s.Plan(sql); perr == nil {
		entry.Plan = p.Explain()
	}
	slow.Record(entry)
}
