package sqldb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"bridgescope/internal/sqldb/vfs"
)

// Options configures a persistent engine opened with OpenEngine.
type Options struct {
	// Name is the engine (database) name; defaults to the directory's base
	// name.
	Name string
	// Sync is the commit durability knob; the zero value is SyncBatch
	// (group commit).
	Sync SyncMode
	// CheckpointEvery is how often the background checkpointer wakes up to
	// check the WAL size. 0 means the 1s default; negative disables the
	// background checkpointer (Checkpoint can still be called manually, and
	// Close always checkpoints).
	CheckpointEvery time.Duration
	// CheckpointBytes is the WAL-size threshold that triggers a background
	// checkpoint. 0 means the 4 MiB default.
	CheckpointBytes int64
	// FS is the filesystem the durability stack runs on. Nil means the real
	// OS; tests inject a vfs.FaultFS to simulate I/O errors and crashes.
	FS vfs.FS
}

const (
	defaultCheckpointEvery = time.Second
	defaultCheckpointBytes = 4 << 20
)

// OpenEngine opens (or creates) a persistent database rooted at dir:
// acquire the directory lock, load the newest valid snapshot, replay the WAL
// tail (truncating any torn frame from a crash mid-write), and start the
// group-commit flusher and background checkpointer. Engines created with
// NewEngine remain purely in-memory; nothing in the write path changes for
// them.
func OpenEngine(dir string, opts Options) (*Engine, error) {
	if dir == "" {
		return nil, fmt.Errorf("sqldb: OpenEngine requires a directory (use NewEngine for in-memory)")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	lock, err := acquireDirLock(fsys, dir)
	if err != nil {
		return nil, err
	}
	// A crash between CreateTemp and the rename orphans a snap-*.tmp that
	// nothing else deletes (retire only matches committed names). The dir
	// lock guarantees no writer is mid-checkpoint, so sweep them here.
	if names, err := fsys.ReadDir(dir); err == nil {
		for _, n := range names {
			if strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".tmp") {
				_ = fsys.Remove(filepath.Join(dir, n))
			}
		}
	}
	name := opts.Name
	if name == "" {
		name = filepath.Base(dir)
	}

	e, seg, lsn, err := recoverEngine(fsys, dir, name)
	if err != nil {
		releaseDirLock(lock)
		return nil, err
	}

	// A WAL write/fsync failure means acknowledged durability can no longer
	// be promised; park the engine in read-only degraded mode on the spot.
	w, err := newWAL(fsys, dir, opts.Sync, seg, lsn, func(werr error) {
		e.degrade("wal", werr)
	})
	if err != nil {
		releaseDirLock(lock)
		return nil, fmt.Errorf("sqldb: opening WAL: %w", err)
	}
	w.metrics = &e.metrics
	e.fs = fsys
	e.dir = dir
	e.lockFile = lock
	e.wal.Store(w)
	// Recovered state counts as checkpointed when there was no WAL tail to
	// fold in: a session that changes nothing then closes cleanly skips the
	// final checkpoint instead of rewriting an identical snapshot.
	e.lastCkptLSN = lsn
	e.lastCkptVersion = e.catalogVersion.Load()
	if lsn > 0 {
		// A replayed WAL tail must be folded into a snapshot at the next
		// checkpoint; poison the marker so it never matches.
		e.lastCkptLSN = 0
		e.lastCkptVersion = ^uint64(0)
	}
	// Log privilege mutations made through any path — GRANT/REVOKE SQL and
	// direct Grants() API calls both funnel through the store's mutators.
	// SQL statements collect their records in a per-statement sink and
	// commit them as one frame (Engine.logGrantsBatched). Direct API calls
	// commit-and-wait inline — grants are rare control-plane changes and
	// there is no statement scope to defer the wait to; a failed append is
	// parked on the engine and surfaced by the next GRANT/REVOKE statement.
	e.grants.logger.Store(&grantLogger{fn: func(ch grantChange) {
		rec := encodeGrantRec(ch)
		if sink := e.grantSink.Load(); sink != nil {
			sink.mu.Lock()
			if !sink.closed {
				sink.recs = append(sink.recs, rec)
				sink.mu.Unlock()
				return
			}
			// The owning statement already drained this sink; fall through
			// to the direct path so the record still reaches the WAL.
			sink.mu.Unlock()
		}
		if lw := e.wal.Load(); lw != nil {
			if err := lw.commit([][]byte{rec}).wait(); err != nil {
				e.grantWALErr.Store(&err)
			}
		}
	}})

	every := opts.CheckpointEvery
	if every == 0 {
		every = defaultCheckpointEvery
	}
	bytes := opts.CheckpointBytes
	if bytes == 0 {
		bytes = defaultCheckpointBytes
	}
	if every > 0 {
		e.ckptQuit = make(chan struct{})
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop(every, bytes)
	}
	return e, nil
}

// acquireDirLock takes an exclusive advisory lock on dir/LOCK. The lock is
// released by Close — or by the OS when the process dies, so a crash never
// strands a stale lock.
func acquireDirLock(fsys vfs.FS, dir string) (vfs.Unlocker, error) {
	lock, err := fsys.Lock(filepath.Join(dir, "LOCK"))
	if err != nil {
		var held *vfs.LockHeldError
		if errors.As(err, &held) {
			return nil, fmt.Errorf("sqldb: database %q is already open in another engine (lock held on %s)",
				dir, held.Path)
		}
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	return lock, nil
}

func releaseDirLock(lock vfs.Unlocker) {
	if lock == nil {
		return
	}
	_ = lock.Unlock()
}

// recoverEngine rebuilds engine state from dir: newest valid snapshot first,
// then the WAL tail. It returns the segment to keep appending to and the
// last LSN seen.
func recoverEngine(fsys vfs.FS, dir, name string) (*Engine, uint64, uint64, error) {
	snaps, err := listNumbered(fsys, dir, "snap", ".snap")
	if err != nil {
		return nil, 0, 0, fmt.Errorf("sqldb: %w", err)
	}

	e := NewEngine(name)
	startSeg := uint64(1)
	snapLoaded := len(snaps) == 0
	// Newest snapshot first; a corrupt one (CRC, torn rename) falls back to
	// the next older, and with none at all the whole WAL is replayed.
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := fsys.ReadFile(snapPath(dir, snaps[i]))
		if err != nil {
			continue
		}
		fresh := NewEngine(name)
		seg, err := loadSnapshot(fresh, data)
		if err != nil {
			continue // try the next older snapshot
		}
		e = fresh
		startSeg = seg
		snapLoaded = true
		break
	}

	segs, err := listNumbered(fsys, dir, "wal", ".log")
	if err != nil {
		return nil, 0, 0, fmt.Errorf("sqldb: %w", err)
	}
	// Snapshots exist but none loads: replaying from scratch is only honest
	// if the full WAL history survives (segment 1 onward — checkpoints
	// retire earlier segments). Otherwise opening would silently succeed
	// with most of the data gone; fail loudly instead.
	if !snapLoaded && (len(segs) == 0 || segs[0] != 1) {
		return nil, 0, 0, fmt.Errorf("sqldb: no snapshot in %s is loadable and the WAL history before segment %v has been retired; refusing to open with data missing", dir, segs)
	}
	replayer := e.NewSession("root")
	curSeg := startSeg
	var lsn uint64
	stopped := false
	for _, seg := range segs {
		if seg < startSeg {
			continue // superseded by the snapshot; retired at next checkpoint
		}
		if stopped {
			// Everything after a torn/corrupt frame is suspect; drop it so
			// the log stays a valid prefix.
			_ = fsys.Remove(segPath(dir, seg))
			continue
		}
		curSeg = seg
		segLSN, valid, complete, err := replaySegment(fsys, replayer, segPath(dir, seg))
		if err != nil {
			return nil, 0, 0, err
		}
		if segLSN > lsn {
			lsn = segLSN
		}
		if !complete {
			// Torn tail: truncate to the last valid frame and stop replay —
			// this is the crash-recovery cut point.
			if err := fsys.Truncate(segPath(dir, seg), valid); err != nil {
				return nil, 0, 0, fmt.Errorf("sqldb: truncating torn WAL tail: %w", err)
			}
			stopped = true
		}
	}
	// Replay builds version chains commit by commit; with no snapshots open
	// yet, one vacuum pass collapses every chain to its latest committed
	// live version.
	for _, lo := range e.tableOrder {
		t := e.tables[lo]
		if t.garbage > 0 {
			t.vacuum(e.lastCommitTS.Load())
		}
	}
	return e, curSeg, lsn, nil
}

// replaySegment applies every valid frame in one WAL segment. It returns the
// last LSN applied, the byte offset of the end of the last valid frame, and
// whether the segment was fully consumed. Physical damage — a short or
// CRC-failing frame, i.e. a torn tail from a crash mid-write — stops replay
// at that offset (complete=false, the caller truncates). A logical
// application error on a CRC-valid frame is different: it means the log
// itself is inconsistent, and it fails the open loudly rather than silently
// truncating away acknowledged commits that follow it.
func replaySegment(fsys vfs.FS, s *Session, path string) (lsn uint64, valid int64, complete bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("sqldb: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, size, ferr := readFrame(data[off:])
		if ferr != nil {
			return lsn, int64(off), false, nil
		}
		frameLSN, recs, derr := decodeFramePayload(payload)
		if derr != nil {
			return lsn, int64(off), false, nil
		}
		if aerr := applyRecords(s, recs); aerr != nil {
			return lsn, int64(off), false, fmt.Errorf("%s at offset %d: %w", path, off, aerr)
		}
		lsn = frameLSN
		off += size
	}
	return lsn, int64(off), true, nil
}

var errReplay = errors.New("sqldb: wal replay")

// applyRecords replays one committed transaction's records against the
// engine. DML records address rows by engine row id (stable across
// snapshot/replay); DDL records round-trip through the parser. The frame's
// commit-timestamp record (its first record) stamps every version this
// frame installs, so replay reconstructs the same visibility order the
// live engine had, and the commit clock resumes past the highest replayed
// timestamp.
//
// DML records are subordinate to the catalog state replay has built so far.
// A transaction may commit DML sequenced after another session's committed
// DDL: its frame follows the DROP (or DROP + re-CREATE) that already
// discarded those rows from the heap, so its records can name a table that
// no longer exists or a superseded incarnation of it (the record's epoch
// differs from the catalog's). Replay skips such records — exactly what the
// heap kept — rather than refusing to open the database. The same rule
// covers updates/deletes of a missing row (a row whose insert-and-delete
// collapsed inside one transaction and was never logged). Anything the
// epoch check cannot explain (arity mismatches or duplicate row ids within
// the SAME incarnation, unparseable or failing DDL, unknown record types)
// cannot be produced by any legal interleaving and remains a hard error:
// the log really is corrupt.
func applyRecords(s *Session, recs []walRec) error {
	e := s.engine
	// Frames written by this engine carry their commit timestamp first.
	// Frames without one (logs written before MVCC, grant-only frames)
	// default to clock+1 — and stamp() advances the clock when a row
	// record actually uses it, so replayed rows are never stamped into the
	// future where no snapshot would see them.
	ts := e.lastCommitTS.Load() + 1
	stamp := func() uint64 {
		if ts > e.lastCommitTS.Load() {
			e.lastCommitTS.Store(ts)
		}
		return ts
	}
	for _, rec := range recs {
		switch rec.typ {
		case recCommit:
			ts = rec.commitTS
			if ts > e.lastCommitTS.Load() {
				e.lastCommitTS.Store(ts)
			}
		case recInsert:
			t, ok := e.Table(rec.table)
			if !ok || t.epoch != rec.epoch {
				continue // raced a committed DROP / re-CREATE; the heap dropped it too
			}
			if len(rec.vals) != len(t.Columns) {
				return fmt.Errorf("%w: insert arity %d != %d columns of %q", errReplay, len(rec.vals), len(t.Columns), rec.table)
			}
			if t.byID[rec.rowID] != nil {
				return fmt.Errorf("%w: duplicate row id %d in %q", errReplay, rec.rowID, rec.table)
			}
			entry := &rowEntry{id: rec.rowID, v: &rowVersion{vals: rec.vals, xmin: stamp()}}
			if rec.rowID > t.nextID {
				t.nextID = rec.rowID
			}
			t.rows = append(t.rows, entry)
			t.byID[entry.id] = entry
			t.indexVals(entry, rec.vals)
		case recDelete:
			t, ok := e.Table(rec.table)
			if !ok || t.epoch != rec.epoch {
				continue // raced a committed DROP; nothing left to delete
			}
			// Even a skipped record proves the heap once allocated this row
			// id; advance the allocator so recovery matches it exactly.
			if rec.rowID > t.nextID {
				t.nextID = rec.rowID
			}
			if entry := t.byID[rec.rowID]; entry != nil && entry.v != nil && entry.v.xmax == 0 {
				entry.v.xmax = stamp()
				t.deadCnt++
				t.garbage++
			}
		case recUpdate:
			t, ok := e.Table(rec.table)
			if !ok || t.epoch != rec.epoch {
				continue // raced a committed DROP / re-CREATE
			}
			if len(rec.vals) != len(t.Columns) {
				return fmt.Errorf("%w: update arity %d != %d columns of %q", errReplay, len(rec.vals), len(t.Columns), rec.table)
			}
			if rec.rowID > t.nextID {
				t.nextID = rec.rowID
			}
			if entry := t.byID[rec.rowID]; entry != nil && entry.v != nil && entry.v.xmax == 0 {
				old := entry.v
				old.xmax = stamp()
				entry.v = &rowVersion{vals: rec.vals, xmin: stamp(), prev: old}
				t.indexVals(entry, rec.vals)
				t.garbage++
			}
		case recDDL:
			stmts, err := ParseScript(rec.sql)
			if err != nil {
				return fmt.Errorf("%w: bad DDL %q: %v", errReplay, rec.sql, err)
			}
			for _, st := range stmts {
				if _, err := s.dispatch(st); err != nil {
					return fmt.Errorf("%w: replaying %q: %v", errReplay, rec.sql, err)
				}
				if ct, isCreate := st.(*CreateTableStmt); isCreate && rec.epoch != 0 {
					// Restore the epoch this incarnation had when it was
					// logged; replay of a rolled-back CREATE never happens,
					// so auto-assignment can drift behind the original.
					if t, ok := e.Table(ct.Table); ok {
						t.epoch = rec.epoch
						if rec.epoch > e.epochCounter {
							e.epochCounter = rec.epoch
						}
					}
				}
			}
		case recGrant:
			e.grants.apply(rec.grant)
		default:
			return fmt.Errorf("%w: unknown record type %d", errReplay, rec.typ)
		}
	}
	return nil
}

// Checkpoint writes a snapshot of the latest committed state and retires
// the WAL segments (and older snapshots) it supersedes. It is a no-op on
// in-memory engines and when nothing has changed since the last
// checkpoint. Open transactions do not block it: the snapshot serializes
// only committed-visible versions, and a transaction that commits later
// lands its redo frame in the post-rotation segment, which replay applies
// on top of the snapshot.
func (e *Engine) Checkpoint() error {
	w := e.wal.Load()
	if w == nil {
		return nil
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	// Quiesce writers through the lock manager — the same order every
	// statement uses (table locks before Engine.mu) — so no commit can slip
	// between the segment rotation and the snapshot encoding. Readers are
	// not blocked: they run under Engine.mu.RLock, which the checkpoint
	// shares while serializing the catalog, and the rotation fsync happens
	// with no engine mutex held at all.
	unlock := e.locks.lockAll()
	defer unlock()

	lsn := w.currentLSN()
	ver := e.catalogVersion.Load()
	if lsn == e.lastCkptLSN && ver == e.lastCkptVersion {
		return nil
	}
	ckptStart := time.Now()
	newSeg, err := w.rotate()
	if err != nil {
		// Rotation failure is fail-stop on the WAL side (rotate already
		// recorded it); park the engine in degraded mode and remember the
		// error for \checkpoint / Health.
		err = fmt.Errorf("sqldb: checkpoint rotate: %w", err)
		e.degrade("checkpoint", err)
		e.noteCkptErr(err)
		return err
	}
	e.mu.RLock()
	data := encodeSnapshot(e, newSeg)
	e.mu.RUnlock()

	if err := writeSnapshotFile(e.fs, e.dir, newSeg, data); err != nil {
		// The snapshot never landed (the atomic rename protocol leaves the
		// previous one intact), but ENOSPC/EIO here means durability
		// maintenance can no longer make progress: degrade rather than let
		// the WAL grow unboundedly while checkpoints silently fail.
		err = fmt.Errorf("sqldb: checkpoint write: %w", err)
		e.degrade("checkpoint", err)
		e.noteCkptErr(err)
		return err
	}
	e.noteCkptErr(nil)
	e.lastCkptLSN = lsn
	e.lastCkptVersion = ver
	w.mu.Lock()
	w.checkpoints++
	w.mu.Unlock()
	w.retire(newSeg)
	e.metrics.ckptDur.Observe(time.Since(ckptStart))
	return nil
}

// checkpointLoop is the background checkpointer: it wakes up periodically
// and checkpoints once the active WAL segment outgrows the threshold (or the
// catalog changed and the WAL has real content). Checkpoint itself skips the
// write when the LSN and catalog version haven't moved.
func (e *Engine) checkpointLoop(every time.Duration, bytes int64) {
	defer close(e.ckptDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-e.ckptQuit:
			return
		case <-t.C:
			w := e.wal.Load()
			if w == nil {
				return
			}
			if w.currentSize() >= bytes {
				_ = e.Checkpoint()
			}
		}
	}
}

// Close makes the database durable and releases it: stop the background
// checkpointer, take a final checkpoint (so the next open replays nothing),
// drain and close the WAL, and release the directory lock. Close is
// idempotent; on an in-memory engine it is a no-op. The engine must not be
// used after Close.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.ckptQuit != nil {
		close(e.ckptQuit)
		<-e.ckptDone
	}
	err := e.Checkpoint()

	e.mu.Lock()
	w := e.wal.Swap(nil)
	e.mu.Unlock()
	e.grants.logger.Store(nil)
	if w != nil {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}
	releaseDirLock(e.lockFile)
	e.lockFile = nil
	return err
}
