package sqldb

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// lockManager shards the old engine-wide writeMu into per-table write locks.
//
// Two levels:
//
//   - global: DDL, grants, and transaction control (BEGIN/COMMIT/ROLLBACK)
//     take the global lock exclusively — they touch the catalog or span an
//     unknown set of tables, so they must exclude every other writer.
//   - tables: plain DML takes the global lock in shared mode (excluding DDL,
//     which keeps the catalog stable) plus one mutex per table the statement
//     may touch. Table locks are always acquired in sorted name order, so
//     two statements with overlapping lock sets cannot deadlock.
//
// Lock ordering: lock-manager locks are always acquired before Engine.mu,
// and table locks only while holding global in shared mode. Engine.mu is
// never held while acquiring lock-manager locks, so there are no cycles.
//
// Table mutexes are created on demand and never removed; the map is bounded
// by the number of distinct table names ever written, which is fine for an
// in-memory engine. A sync.Map keeps the steady-state lookup lock-free —
// a plain map guarded by one mutex would reintroduce a global serialization
// point on every DML statement, which is exactly what the sharding removes.
type lockManager struct {
	global sync.RWMutex

	tables sync.Map // table name -> *sync.Mutex

	tableAcquires  atomic.Int64
	globalAcquires atomic.Int64
	curWriters     atomic.Int64
	maxWriters     atomic.Int64
}

// lockAll takes the exclusive all-tables lock and returns the unlock func.
func (lm *lockManager) lockAll() func() {
	lm.global.Lock() //sqlvet:ignore lockbalance -- returns holding the lock by contract; the returned func is the unlock
	lm.globalAcquires.Add(1)
	return lm.global.Unlock
}

// tableLock returns the mutex for one table, creating it on first use.
func (lm *lockManager) tableLock(name string) *sync.Mutex {
	if l, ok := lm.tables.Load(name); ok {
		return l.(*sync.Mutex)
	}
	l, _ := lm.tables.LoadOrStore(name, &sync.Mutex{})
	return l.(*sync.Mutex)
}

// noteLocked updates the acquisition counters once a statement holds all its
// table locks.
func (lm *lockManager) noteLocked(n int) {
	lm.tableAcquires.Add(int64(n))
	cur := lm.curWriters.Add(1)
	for {
		max := lm.maxWriters.Load()
		if cur <= max || lm.maxWriters.CompareAndSwap(max, cur) {
			break
		}
	}
}

// lockNamed acquires the per-table mutexes for the given sorted, lower-cased
// names. The caller must hold the global lock in shared mode. Single-table
// statements (the common case) skip the lock-slice allocation.
func (lm *lockManager) lockNamed(names []string) func() {
	if len(names) == 1 {
		l := lm.tableLock(names[0])
		l.Lock() //sqlvet:ignore lockbalance -- returns holding the table lock; the returned closure unlocks
		lm.noteLocked(1)
		return func() {
			lm.curWriters.Add(-1)
			l.Unlock()
		}
	}
	locks := make([]*sync.Mutex, 0, len(names))
	for _, n := range names {
		locks = append(locks, lm.tableLock(n))
	}
	for _, l := range locks {
		l.Lock() //sqlvet:ignore lockbalance -- returns holding the sorted table locks; the returned closure unlocks in reverse
	}
	lm.noteLocked(len(locks))
	return func() {
		lm.curWriters.Add(-1)
		for i := len(locks) - 1; i >= 0; i-- {
			locks[i].Unlock()
		}
	}
}

// LockStats reports write-lock activity; benchmarks and tests use it to
// verify that disjoint-table writers genuinely overlap.
type LockStats struct {
	// TableAcquires counts individual table-lock acquisitions by DML.
	TableAcquires int64
	// GlobalAcquires counts exclusive all-tables acquisitions (DDL, grants,
	// and transaction control).
	GlobalAcquires int64
	// MaxConcurrentWriters is the high-water mark of DML statements holding
	// table locks at the same time.
	MaxConcurrentWriters int64
}

// LockStats returns a snapshot of the engine's write-lock counters.
func (e *Engine) LockStats() LockStats {
	return LockStats{
		TableAcquires:        e.locks.tableAcquires.Load(),
		GlobalAcquires:       e.locks.globalAcquires.Load(),
		MaxConcurrentWriters: e.locks.maxWriters.Load(),
	}
}

// lockForWrite acquires the write-side locks for one mutating statement and
// returns the unlock func. DML locks exactly the tables it may touch; every
// other statement kind (DDL, grants, transaction control) takes the
// exclusive all-tables lock.
func (e *Engine) lockForWrite(stmt Stmt) func() {
	return e.lockForWriteNames(stmt, nil)
}

// lockForWriteNames is lockForWrite with an optional precomputed lock set.
// Plan-cache entries carry their lock names so cache hits skip the catalog
// walk; names must have come from writeLockNames at the entry's catalog
// version. Locking a stale set is harmless — the version check after the
// locks are held discards the entry before it executes anything.
func (e *Engine) lockForWriteNames(stmt Stmt, names []string) func() {
	// EXPLAIN ANALYZE executes its inner statement, so it locks exactly as
	// that statement would.
	if ex, ok := stmt.(*ExplainStmt); ok && ex.Analyze {
		stmt = ex.Stmt
	}
	lm := &e.locks
	start := time.Now()
	switch stmt.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		lm.global.RLock() //sqlvet:ignore lockbalance -- shared global held until the returned closure runs
		if names == nil {
			names = e.writeLockNames(stmt)
		}
		inner := lm.lockNamed(names)
		e.metrics.lockWait.Observe(time.Since(start))
		return func() {
			inner()
			lm.global.RUnlock()
		}
	}
	unlock := lm.lockAll()
	e.metrics.lockWait.Observe(time.Since(start))
	return unlock
}

// writeLockNames computes the deterministic (sorted, lower-cased, deduped)
// set of tables a DML statement may read or write: every referenced table
// with views expanded to their underlying tables, tables read by subqueries
// anywhere in the statement, plus the target table's foreign-key parents and
// children, whose rows the constraint checks inspect. The caller holds the
// lock manager's global lock in shared mode, which excludes DDL, so the
// catalog is stable while we walk it.
func (e *Engine) writeLockNames(stmt Stmt) []string {
	if ex, ok := stmt.(*ExplainStmt); ok && ex.Analyze {
		stmt = ex.Stmt
	}
	seen := make(map[string]bool)
	var names []string
	var add func(name string)
	add = func(name string) {
		lo := strings.ToLower(name)
		if lo == "" || seen[lo] {
			return
		}
		seen[lo] = true
		if v, ok := e.views[lo]; ok {
			for _, ref := range ReferencedTables(v.Query) {
				add(ref)
			}
			return // a view owns no rows of its own
		}
		names = append(names, lo)
	}
	for _, t := range ReferencedTables(stmt) {
		add(t)
	}
	// ReferencedTables covers WHERE subqueries; SET and VALUES expressions
	// can also hold scalar subqueries that read other tables.
	var exprs []Expr
	switch st := stmt.(type) {
	case *InsertStmt:
		for _, row := range st.Rows {
			exprs = append(exprs, row...)
		}
	case *UpdateStmt:
		for _, set := range st.Set {
			exprs = append(exprs, set.Expr)
		}
	}
	for _, ex := range exprs {
		for _, t := range subqueryTables(ex) {
			add(t)
		}
	}
	if t, ok := e.Table(mainTable(stmt)); ok {
		for _, fk := range t.ForeignKeys {
			add(fk.ParentTable)
		}
		for _, cf := range e.childFKs(t.Name) {
			add(cf.table.Name)
		}
	}
	sort.Strings(names)
	return names
}
