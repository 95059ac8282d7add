package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Exec parses and executes one SQL statement under the session's user. It is
// the cache-aware entry point: a hot (user, SQL) pair whose plan is still
// valid against the catalog version skips the lexer, parser, and planner
// entirely (the engine's prepared-statement layer, see plancache.go).
func (s *Session) Exec(sql string) (*Result, error) {
	// A forced-seq-scan session neither serves nor produces cached plans:
	// cache entries are shared engine-wide, and an optimized entry would
	// defeat the forcing just as a forced entry would pessimize everyone
	// else.
	if !s.forceSeqScan {
		if ent, ok := s.engine.plans.lookup(s.user, sql); ok {
			if res, done, err := s.execCached(ent, sql); done {
				return res, err
			}
		}
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	return s.execStmt(stmt, sql)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	stmts, err := ParseScript(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	var out []*Result
	for _, st := range stmts {
		r, err := s.ExecStmt(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MustExec executes a statement and panics on error; intended for test and
// benchmark fixtures.
func (s *Session) MustExec(sql string) *Result {
	r, err := s.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("MustExec(%q): %v", sql, err))
	}
	return r
}

// isReadOnly classifies a statement for engine locking: read-only
// statements run under the shared engine lock so independent sessions can
// execute SELECTs (and EXPLAINs) in parallel; everything else serializes on
// the writer lock.
func isReadOnly(stmt Stmt) bool {
	switch st := stmt.(type) {
	case *SelectStmt:
		return true
	case *ExplainStmt:
		// Plain EXPLAIN only plans; EXPLAIN ANALYZE executes the inner
		// statement and inherits its lock class.
		if st.Analyze {
			return isReadOnly(st.Stmt)
		}
		return true
	}
	return false
}

// holdsEngineLock classifies writer statements by how they take the engine
// (heap/catalog) write lock. DML and transaction control hold only the
// writer mutex for the statement and take the engine lock for short version
// installation and commit-stamping critical sections, so concurrent readers
// never stall behind a long write statement. DDL and grants mutate the
// catalog in many places and keep the whole-statement exclusive lock.
func holdsEngineLock(stmt Stmt) bool {
	if ex, ok := stmt.(*ExplainStmt); ok && ex.Analyze {
		stmt = ex.Stmt
	}
	switch stmt.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt,
		*BeginStmt, *CommitStmt, *RollbackStmt:
		return false
	}
	return true
}

// ExecStmt executes a parsed statement. The session lock serializes
// statements on this session (its transaction state is single-stream, like
// a database connection); the engine lock is shared for read-only
// statements so distinct sessions execute SELECTs in parallel. With no SQL
// text to key on, pre-parsed statements never touch the plan cache.
func (s *Session) ExecStmt(stmt Stmt) (*Result, error) {
	return s.execStmt(stmt, "")
}

// execStmt is the cold execution path: plan fresh and, when sql is non-empty
// and the statement is cacheable, record the prepared form for next time.
// The durability wait happens here, after every lock is released: the commit
// is already in the WAL writer's batch, so concurrent committers pile into
// one group fsync instead of serializing it under the engine lock.
func (s *Session) execStmt(stmt Stmt, sql string) (*Result, error) {
	start := time.Now()
	res, tok, err := s.execStmtLocked(stmt, sql)
	if werr := tok.wait(); werr != nil && err == nil {
		err = fmt.Errorf("commit applied in memory but not durable: %w", werr)
	}
	// Latency and slow-query recording happen after every lock is released
	// and the durability wait is over, so the measured time is what the
	// client experienced and recording can never extend a critical section.
	s.noteStmtDone(stmt, sql, start, res, err)
	return res, err
}

func (s *Session) execStmtLocked(stmt Stmt, sql string) (*Result, *syncToken, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.engine
	readOnly := isReadOnly(stmt)
	engineLocked := false
	if readOnly {
		e.mu.RLock()
		defer e.mu.RUnlock()
	} else {
		// DML locks just the tables it touches (plus FK neighbors); DDL,
		// grants, and transaction control take the all-tables lock.
		unlock := e.lockForWrite(stmt)
		defer unlock()
		if holdsEngineLock(stmt) {
			engineLocked = true
			e.mu.Lock()
			defer e.mu.Unlock()
		}
	}
	// Establish the statement's read snapshot after the locks are held: the
	// transaction's fixed snapshot under snapshot isolation, a fresh view of
	// the commit clock otherwise.
	s.curView = s.stmtView()

	if err := s.checkStmtPrivileges(stmt); err != nil {
		return nil, nil, err
	}

	// Transaction control bypasses the statement undo scope.
	switch st := stmt.(type) {
	case *BeginStmt:
		if err := s.begin(st.Level); err != nil {
			return nil, nil, err
		}
		return &Result{Message: "BEGIN"}, nil, nil
	case *CommitStmt:
		tok, err := s.commitTx()
		if err != nil {
			return nil, nil, err
		}
		return &Result{Message: "COMMIT"}, tok, nil
	case *RollbackStmt:
		if err := s.rollbackTx(); err != nil {
			return nil, nil, err
		}
		return &Result{Message: "ROLLBACK"}, nil, nil
	}

	// A degraded engine is read-only: refuse write statements before they do
	// any memory work, so the heap never diverges from what the WAL can
	// honestly make durable. SELECT/EXPLAIN (and the transaction control
	// handled above) keep working.
	if !readOnly {
		if derr := e.checkWritable(); derr != nil {
			return nil, nil, derr
		}
	}

	// A transaction aborted by a write conflict refuses further statements
	// until it is rolled back (PostgreSQL's aborted-transaction state).
	if s.txn != nil && s.txn.aborted {
		return nil, nil, fmt.Errorf("current transaction is aborted by a write conflict; ROLLBACK and retry: %w", ErrWriteConflict)
	}

	var ent *cachedStmt
	if sql != "" {
		if ent = s.prepare(stmt); ent != nil {
			e.plans.misses.Add(1)
		}
	}
	s.beginStmt()
	var res *Result
	var err error
	if ent != nil {
		//sqlvet:ignore lockorder -- the channel waits runPrepared can reach are the parallel scanner's, which only runs for SELECTs, and those execute under e.mu.RLock (the e.mu.Lock branch above is taken only for DDL-class statements)
		res, err = s.runPrepared(ent)
	} else {
		//sqlvet:ignore lockorder -- same split as runPrepared: dispatch's blocking paths are the read-only parallel scan, never reached on the DDL branch that holds e.mu exclusively
		res, err = s.dispatch(stmt)
	}
	tok := s.endStmt(err, engineLocked)
	if s.grantTok != nil {
		// GRANT/REVOKE parked its WAL claim on the session; fold it into the
		// statement token so the durability wait happens after unlock.
		tok = joinTokens(tok, s.grantTok)
		s.grantTok = nil
	}
	s.noteConflict(err)
	if err == nil && ent != nil {
		e.plans.put(s.user, sql, ent)
	}
	return res, tok, err
}

// noteConflict records a serialization failure: the conflict counter ticks,
// and an open transaction is marked aborted — its snapshot is stale, so the
// only useful continuation is ROLLBACK and retry. Degraded-engine refusals
// are retryable too but are not conflicts: they neither count here nor
// poison the transaction (its snapshot is still good for reads).
func (s *Session) noteConflict(err error) {
	if err == nil || !errors.Is(err, ErrWriteConflict) {
		return
	}
	s.engine.writeConflicts.Add(1)
	if s.txn != nil {
		s.txn.aborted = true
		s.engine.metrics.txnAborts.Add(1)
	}
}

// execCached executes a plan-cache hit under the entry's lock class. done is
// false when the entry is stale (the catalog version moved since it was
// planned): the caller falls back to the cold path, which re-plans and
// replaces the entry. The version check happens under the engine lock, so a
// fresh entry cannot be invalidated by DDL mid-execution.
func (s *Session) execCached(ent *cachedStmt, sql string) (res *Result, done bool, err error) {
	start := time.Now()
	res, done, tok, err := s.execCachedLocked(ent, sql)
	if werr := tok.wait(); werr != nil && err == nil {
		err = fmt.Errorf("commit applied in memory but not durable: %w", werr)
	}
	if done {
		// A stale entry (done=false) falls through to the cold path, which
		// records the whole statement itself.
		s.noteStmtDone(ent.stmt, sql, start, res, err)
	}
	return res, done, err
}

func (s *Session) execCachedLocked(ent *cachedStmt, sql string) (res *Result, done bool, tok *syncToken, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.engine
	if ent.readOnly {
		e.mu.RLock()
		defer e.mu.RUnlock()
	} else {
		// Cacheable writers are DML, which never holds the engine lock for
		// the whole statement (see holdsEngineLock). The entry carries its
		// precomputed lock set, so a hit skips the catalog walk.
		unlock := e.lockForWriteNames(ent.stmt, ent.lockNames)
		defer unlock()
	}
	s.curView = s.stmtView()
	if ent.version != e.catalogVersion.Load() {
		// Evict rather than leave the stale entry riding the LRU: if the
		// cold path fails (table dropped), nothing would ever replace it.
		e.plans.remove(s.user, sql)
		return nil, false, nil, nil
	}
	e.plans.hits.Add(1)
	if !ent.readOnly {
		// Same read-only gate as the cold path: a degraded engine refuses
		// cached DML before any memory mutation.
		if derr := e.checkWritable(); derr != nil {
			return nil, true, nil, derr
		}
	}
	if s.txn != nil && s.txn.aborted {
		return nil, true, nil, fmt.Errorf("current transaction is aborted by a write conflict; ROLLBACK and retry: %w", ErrWriteConflict)
	}
	// Privileges are re-checked on every execution; a grant change also
	// bumps the catalog version, but direct Grants() mutations make that
	// bump advisory rather than load-bearing.
	if err := s.checkStmtPrivileges(ent.stmt); err != nil {
		return nil, true, nil, err
	}
	s.beginStmt()
	res, err = s.runPrepared(ent)
	tok = s.endStmt(err, false)
	s.noteConflict(err)
	return res, true, tok, err
}

// prepare builds the cacheable form of a statement pinned to the current
// catalog version: the SELECT pipeline plan or the UPDATE/DELETE row-match
// plan. INSERT caches as parsed-only (a hit still skips lexer and parser).
// Everything else (DDL, grants, EXPLAIN) returns nil and is never cached.
func (s *Session) prepare(stmt Stmt) *cachedStmt {
	if s.forceSeqScan {
		return nil
	}
	ent := &cachedStmt{
		stmt:     stmt,
		readOnly: isReadOnly(stmt),
		version:  s.engine.catalogVersion.Load(),
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		ent.sel = s.planSelect(st)
	case *UpdateStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil
		}
		ent.write = s.planWrite(st.Table, st.Where)
	case *DeleteStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil
		}
		ent.write = s.planWrite(st.Table, st.Where)
	case *InsertStmt:
	default:
		return nil
	}
	if !ent.readOnly {
		// prepare runs with the statement's write locks already held, so the
		// catalog is stable; the names stay valid for the entry's lifetime
		// because any DDL bumps the catalog version and evicts it.
		ent.lockNames = s.engine.writeLockNames(stmt)
	}
	return ent
}

// runPrepared executes a prepared statement's stored plan. Plans and
// statement trees are immutable during execution, so one entry may run in
// many sessions at once (SELECT hits share the engine read lock).
func (s *Session) runPrepared(ent *cachedStmt) (*Result, error) {
	switch st := ent.stmt.(type) {
	case *SelectStmt:
		if err := s.checkColumnPrivileges(st); err != nil {
			return nil, err
		}
		return s.runSelectPlan(ent.sel, nil)
	case *UpdateStmt:
		return s.execUpdate(st, ent.write)
	case *DeleteStmt:
		return s.execDelete(st, ent.write)
	case *InsertStmt:
		return s.execInsert(st)
	}
	return nil, fmt.Errorf("unsupported statement type %T", ent.stmt)
}

func (s *Session) dispatch(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *SelectStmt:
		return s.execSelect(st, nil)
	case *ExplainStmt:
		if st.Analyze {
			return s.execExplainAnalyze(st)
		}
		plan, err := s.planStmt(st.Stmt)
		if err != nil {
			return nil, err
		}
		return plan.ExplainRows(), nil
	case *InsertStmt:
		return s.execInsert(st)
	case *UpdateStmt:
		return s.execUpdate(st, nil)
	case *DeleteStmt:
		return s.execDelete(st, nil)
	case *CreateTableStmt:
		return s.execCreateTable(st)
	case *DropTableStmt:
		return s.execDropTable(st)
	case *CreateViewStmt:
		return s.execCreateView(st)
	case *DropViewStmt:
		return s.execDropView(st)
	case *CreateIndexStmt:
		return s.execCreateIndex(st)
	case *AlterTableStmt:
		return s.execAlterTable(st)
	case *GrantStmt:
		return s.execGrant(st)
	case *RevokeStmt:
		return s.execRevoke(st)
	}
	return nil, fmt.Errorf("unsupported statement type %T", stmt)
}

// checkStmtPrivileges enforces database-side privileges before execution
// (the engine's native security layer; BridgeScope's tool-side verification
// in internal/core is an additional, earlier gate).
func (s *Session) checkStmtPrivileges(stmt Stmt) error {
	g := s.engine.grants
	switch st := stmt.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return nil
	case *ExplainStmt:
		// Explaining a statement requires the privileges to run it.
		return s.checkStmtPrivileges(st.Stmt)
	case *GrantStmt, *RevokeStmt:
		if !g.IsSuperuser(s.user) {
			return &PermissionError{User: s.user, Action: ActionGrant, Object: "database"}
		}
		return nil
	case *CreateTableStmt:
		if !g.Has(s.user, ActionCreate, "*") {
			return &PermissionError{User: s.user, Action: ActionCreate, Object: st.Table}
		}
		return nil
	case *CreateViewStmt:
		if !g.Has(s.user, ActionCreate, "*") {
			return &PermissionError{User: s.user, Action: ActionCreate, Object: st.Name}
		}
		// Creating a view requires SELECT on its underlying tables.
		for _, tbl := range ReferencedTables(st.Query) {
			if !g.Has(s.user, ActionSelect, tbl) {
				return &PermissionError{User: s.user, Action: ActionSelect, Object: tbl}
			}
		}
		return nil
	case *DropViewStmt:
		if !g.Has(s.user, ActionDrop, st.Name) {
			return &PermissionError{User: s.user, Action: ActionDrop, Object: st.Name}
		}
		return nil
	case *CreateIndexStmt:
		if !g.Has(s.user, ActionCreate, "*") && !g.Has(s.user, ActionAlter, st.Table) {
			return &PermissionError{User: s.user, Action: ActionCreate, Object: st.Table}
		}
		return nil
	}
	action := stmt.StmtAction()
	for i, tbl := range ReferencedTables(stmt) {
		// The statement's own table comes first and needs the statement's
		// action; every later entry is a table it reads and needs SELECT.
		need := action
		if i > 0 {
			need = ActionSelect
		}
		if !g.Has(s.user, need, tbl) {
			return &PermissionError{User: s.user, Action: need, Object: tbl}
		}
	}
	return nil
}

func mainTable(stmt Stmt) string {
	switch st := stmt.(type) {
	case *InsertStmt:
		return st.Table
	case *UpdateStmt:
		return st.Table
	case *DeleteStmt:
		return st.Table
	case *DropTableStmt:
		return st.Table
	case *AlterTableStmt:
		return st.Table
	}
	return ""
}

// rowSet is an intermediate relation: qualified column names plus rows.
type rowSet struct {
	cols []string
	rows [][]Value
	env  []envCol // cols in Env layout; see envCols
}

// envCols returns the relation's columns in Env layout, computed once and
// shared by every operator that binds against this relation.
func (r *rowSet) envCols() []envCol {
	if r.env == nil {
		r.env = toEnvCols(r.cols)
	}
	return r.env
}

// scanView materializes a view into a rowSet. The stored AST is shared
// across sessions, which is safe because execution never mutates statement
// trees (subqueries run through the Env's session, see Env.sess).
func (s *Session) scanView(v *View, alias string) (*rowSet, error) {
	res, err := s.execSelect(v.Query, nil)
	if err != nil {
		return nil, fmt.Errorf("view %q: %w", v.Name, err)
	}
	qual := strings.ToLower(alias)
	if qual == "" {
		qual = strings.ToLower(v.Name)
	}
	rs := &rowSet{}
	for _, c := range res.Columns {
		rs.cols = append(rs.cols, qual+"."+strings.ToLower(c))
	}
	rs.rows = res.Rows
	return rs, nil
}

// execSelect runs a SELECT and returns its result. outer provides the
// enclosing row for correlated subqueries.
func (s *Session) execSelect(st *SelectStmt, outer *Env) (*Result, error) {
	if err := s.checkColumnPrivileges(st); err != nil {
		return nil, err
	}
	// Lower the statement into a plan (scan/index-scan selection, predicate
	// pushdown, join strategy) and run it.
	return s.runSelectPlan(s.planSelect(st), outer)
}

// runSelectPlan executes a SELECT plan — freshly built or served from the
// plan cache — through the source tree and the batched
// projection/aggregation pipeline above it.
func (s *Session) runSelectPlan(plan *SelectPlan, outer *Env) (*Result, error) {
	st := plan.Stmt

	// FROM-less SELECT evaluates its select list once against the outer env.
	if plan.Source == nil {
		rows, err := s.project(st.Items, nil, nil, &rowSet{rows: [][]Value{nil}}, nil, outer)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: outputCols(st.Items, nil), Rows: rows}, nil
	}

	src, err := s.runSource(plan.Source, outer)
	if err != nil {
		return nil, err
	}

	// Residual predicate: conjuncts the planner could not push into the
	// source tree (multi-source, correlated, or subquery conditions).
	filtered, err := s.applyFilter(plan.Residual, src, outer)
	if err != nil {
		return nil, err
	}

	outCols := outputCols(st.Items, filtered.cols)
	// SortPushed plans emit rows in ORDER BY order straight from the
	// ordered index scan; the sort stage is skipped exactly as EXPLAIN
	// shows (no Sort node in the tree).
	sorted := len(st.OrderBy) > 0 && !plan.SortPushed
	var sortCols []int
	var sortExtra []Expr
	var badOrdinal error
	if sorted {
		sortCols, sortExtra, badOrdinal = sortSlots(st.OrderBy, outCols)
	}

	var groups []*groupResult
	var having Expr
	if len(st.GroupBy) > 0 || selectHasAggregate(st) {
		if groups, err = s.groupRows(st, filtered, outer); err != nil {
			return nil, err
		}
		having = st.Having
	}
	outRows, err := s.project(st.Items, sortExtra, having, filtered, groups, outer)
	if err != nil {
		return nil, err
	}

	if st.Distinct {
		outRows = s.distinctRows(outRows, len(outCols))
	}
	if sorted && len(outRows) > 0 {
		if badOrdinal != nil {
			return nil, badOrdinal
		}
		orderRows(st.OrderBy, sortCols, outRows)
		if len(sortExtra) > 0 {
			for i, row := range outRows {
				outRows[i] = row[:len(outCols):len(outCols)]
			}
		}
	}

	outRows, err = s.applyLimitOffset(st, outRows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: outCols, Rows: outRows}, nil
}

func toEnvCols(qualified []string) []envCol {
	out := make([]envCol, len(qualified))
	for i, q := range qualified {
		tbl, name := "", q
		if j := strings.IndexByte(q, '.'); j >= 0 {
			tbl, name = q[:j], q[j+1:]
		}
		out[i] = envCol{table: tbl, name: name}
	}
	return out
}

func (s *Session) joinSets(left, right *rowSet, ref TableRef, outer *Env) (*rowSet, error) {
	out := &rowSet{cols: append(append([]string{}, left.cols...), right.cols...)}
	if ref.JoinKind == JoinInner && ref.On != nil {
		if li, ri, ok := equiJoinCols(ref.On, left.cols, right.cols); ok {
			workers, slots := s.fanout(len(left.rows)+len(right.rows), false)
			return hashJoin(out, left, right, li, ri, workers, slots), nil
		}
	}

	// Nested loop: the only strategy for non-equi and LEFT joins. The ON
	// clause is bound once and evaluated through one reused Env.
	b := newBinder(out.envCols(), len(left.rows)*len(right.rows))
	on := b.bindExpr(ref.On)
	env := &Env{cols: b.cols, outer: outer, sess: s}
	for _, lrow := range left.rows {
		matched := false
		for _, rrow := range right.rows {
			combined := make([]Value, 0, len(lrow)+len(rrow))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			if on != nil {
				env.vals = combined
				ov, err := on.Eval(env)
				if err != nil {
					return nil, err
				}
				if ov.IsNull() || !ov.Truthy() {
					continue
				}
			}
			matched = true
			out.rows = append(out.rows, combined)
		}
		if ref.JoinKind == JoinLeft && !matched {
			combined := make([]Value, 0, len(lrow)+len(right.cols))
			combined = append(combined, lrow...)
			for range right.cols {
				combined = append(combined, Null())
			}
			out.rows = append(out.rows, combined)
		}
	}
	return out, nil
}

// equiJoinCols recognizes `a.x = b.y` ON clauses and resolves the two sides
// to left/right column positions.
func equiJoinCols(on Expr, leftCols, rightCols []string) (int, int, bool) {
	be, ok := on.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return 0, 0, false
	}
	lc, ok1 := be.Left.(*ColumnRef)
	rc, ok2 := be.Right.(*ColumnRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	li := resolveIn(lc, leftCols)
	ri := resolveIn(rc, rightCols)
	if li >= 0 && ri >= 0 {
		return li, ri, true
	}
	// The ON clause may name them in the other order.
	li = resolveIn(rc, leftCols)
	ri = resolveIn(lc, rightCols)
	if li >= 0 && ri >= 0 {
		return li, ri, true
	}
	return 0, 0, false
}

func resolveIn(c *ColumnRef, cols []string) int {
	want := strings.ToLower(c.Name)
	qual := strings.ToLower(c.Table)
	hit := -1
	for i, q := range cols {
		tbl, name := "", q
		if j := strings.IndexByte(q, '.'); j >= 0 {
			tbl, name = q[:j], q[j+1:]
		}
		if name != want {
			continue
		}
		if qual != "" && tbl != qual {
			continue
		}
		if hit >= 0 {
			return -1 // ambiguous
		}
		hit = i
	}
	return hit
}

// indexableEq finds a top-level `col = literal` conjunct and resolves the
// column position.
func indexableEq(where Expr, cols []string) (int, Value, bool) {
	switch e := where.(type) {
	case *BinaryExpr:
		switch e.Op {
		case "AND":
			if c, v, ok := indexableEq(e.Left, cols); ok {
				return c, v, ok
			}
			return indexableEq(e.Right, cols)
		case "=":
			if cr, ok := e.Left.(*ColumnRef); ok {
				if lit, ok2 := e.Right.(*Literal); ok2 {
					if i := resolveIn(cr, cols); i >= 0 {
						return i, lit.Val, true
					}
				}
			}
			if cr, ok := e.Right.(*ColumnRef); ok {
				if lit, ok2 := e.Left.(*Literal); ok2 {
					if i := resolveIn(cr, cols); i >= 0 {
						return i, lit.Val, true
					}
				}
			}
		}
	}
	return 0, Value{}, false
}

func selectHasAggregate(st *SelectStmt) bool {
	for _, it := range st.Items {
		if it.Expr != nil && HasAggregate(it.Expr) {
			return true
		}
	}
	if st.Having != nil && HasAggregate(st.Having) {
		return true
	}
	for _, k := range st.OrderBy {
		if HasAggregate(k.Expr) {
			return true
		}
	}
	return false
}

// collectAggNodes gathers every distinct aggregate call node in the select
// list, HAVING, and ORDER BY. Group results are keyed by these original node
// pointers (see Env.agg), so the set must be collected from the statement
// tree itself, never from a rewritten copy.
func collectAggNodes(st *SelectStmt) []*FuncExpr {
	var aggNodes []*FuncExpr
	seen := map[*FuncExpr]bool{}
	scan := func(e Expr) {
		walkExpr(e, func(x Expr) {
			if f, ok := x.(*FuncExpr); ok && f.IsAggregate() && !seen[f] {
				seen[f] = true
				aggNodes = append(aggNodes, f)
			}
		})
	}
	for _, it := range st.Items {
		scan(it.Expr)
	}
	scan(st.Having)
	for _, k := range st.OrderBy {
		scan(k.Expr)
	}
	return aggNodes
}

// finishAggregate folds the collected (non-NULL, DISTINCT-deduped) argument
// values according to the aggregate's semantics.
func finishAggregate(f *FuncExpr, vals []Value) (Value, error) {
	switch f.Name {
	case "COUNT":
		return NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			fv, ok := v.AsFloat()
			if !ok {
				return Value{}, fmt.Errorf("%s requires numeric values, got %s", f.Name, v.Kind)
			}
			if v.Kind != KindInt {
				allInt = false
			}
			sum += fv
		}
		if f.Name == "AVG" {
			return NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return NewInt(int64(sum)), nil
		}
		return NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := Compare(v, best)
			if err != nil {
				return Value{}, err
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("unknown aggregate %s", f.Name)
}

// outputCols computes the output column names of a select list over the
// given source columns.
func outputCols(items []SelectItem, srcCols []string) []string {
	var cols []string
	for _, it := range items {
		if it.Star {
			for _, q := range srcCols {
				tbl, name := splitQualified(q)
				if it.Table != "" && !strings.EqualFold(tbl, it.Table) {
					continue
				}
				cols = append(cols, name)
			}
			continue
		}
		cols = append(cols, itemName(it))
	}
	return cols
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

func splitQualified(q string) (table, name string) {
	if j := strings.IndexByte(q, '.'); j >= 0 {
		return q[:j], q[j+1:]
	}
	return "", q
}

// sortSlots resolves each ORDER BY key to a position in the projected row:
// a 1-based ordinal, an output column named by an unqualified reference
// (output names shadow source columns), or else a column the projection
// pass appends after the select list, whose expressions extra lists in
// order. An out-of-range ordinal is returned as badOrdinal, an error only
// when there are rows to sort.
func sortSlots(keys []OrderKey, outCols []string) (slots []int, extra []Expr, badOrdinal error) {
	for _, k := range keys {
		if lit, ok := k.Expr.(*Literal); ok && lit.Val.Kind == KindInt {
			idx := int(lit.Val.I) - 1
			if (idx < 0 || idx >= len(outCols)) && badOrdinal == nil {
				badOrdinal = fmt.Errorf("ORDER BY position %d is out of range", lit.Val.I)
			}
			slots = append(slots, idx)
			continue
		}
		if cr, ok := k.Expr.(*ColumnRef); ok && cr.Table == "" {
			if j := slices.IndexFunc(outCols, func(c string) bool { return strings.EqualFold(c, cr.Name) }); j >= 0 {
				slots = append(slots, j)
				continue
			}
		}
		slots = append(slots, len(outCols)+len(extra))
		extra = append(extra, k.Expr)
	}
	return slots, extra, badOrdinal
}

// orderRows stably sorts rows in place by the values at the ORDER BY keys'
// slots (see sortSlots).
func orderRows(keys []OrderKey, slots []int, rows [][]Value) {
	sort.SliceStable(rows, func(a, b int) bool {
		for ki, k := range keys {
			c, null := compareForOrder(rows[a][slots[ki]], rows[b][slots[ki]], k.Desc)
			if null || c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// compareForOrder compares with PostgreSQL null ordering: NULL is treated
// as larger than every value, so NULLs sort last ascending and first
// descending (the desc parameter is kept for call-site symmetry; the
// caller's direction flip covers it). The desc branch used to return the
// inverted sign, which sorted NULLs last in both directions, contradicting
// both this comment and the ordered-index scan path. Returns null=true when
// both are NULL.
func compareForOrder(a, b Value, desc bool) (int, bool) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, true
	case a.IsNull():
		return 1, false
	case b.IsNull():
		return -1, false
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0, true
	}
	return c, false
}

func (s *Session) applyLimitOffset(st *SelectStmt, rows [][]Value) ([][]Value, error) {
	evalInt := func(e Expr, what string) (int, error) {
		v, err := e.Eval(&Env{sess: s})
		if err != nil {
			return 0, err
		}
		if v.Kind != KindInt || v.I < 0 {
			return 0, fmt.Errorf("%s must be a non-negative integer", what)
		}
		return int(v.I), nil
	}
	if st.Offset != nil {
		n, err := evalInt(st.Offset, "OFFSET")
		if err != nil {
			return nil, err
		}
		if n >= len(rows) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if st.Limit != nil {
		n, err := evalInt(st.Limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
}

// checkColumnPrivileges enforces PostgreSQL-style column grants: when a
// user's SELECT on a table is restricted to named columns, referencing any
// other column (or `*`) is a permission error.
func (s *Session) checkColumnPrivileges(st *SelectStmt) error {
	g := s.engine.grants
	type restricted struct {
		alias   string
		table   string
		allowed map[string]bool
	}
	var rs []restricted
	for _, ref := range st.From {
		allowed := g.AllowedColumns(s.user, ActionSelect, ref.Table)
		if allowed == nil {
			continue
		}
		alias := strings.ToLower(ref.Alias)
		if alias == "" {
			alias = strings.ToLower(ref.Table)
		}
		rs = append(rs, restricted{alias: alias, table: ref.Table, allowed: allowed})
	}
	if len(rs) == 0 {
		return nil
	}
	for _, it := range st.Items {
		if it.Star {
			for _, r := range rs {
				if it.Table == "" || strings.EqualFold(it.Table, r.alias) {
					return &PermissionError{User: s.user, Action: ActionSelect,
						Object: r.table + ".*"}
				}
			}
		}
	}
	var bad error
	checkRef := func(e Expr) {
		walkExpr(e, func(x Expr) {
			cr, ok := x.(*ColumnRef)
			if !ok || bad != nil {
				return
			}
			for _, r := range rs {
				if cr.Table != "" && !strings.EqualFold(cr.Table, r.alias) {
					continue
				}
				// An unqualified ref may belong to another table; only
				// reject when this restricted table has the column.
				if t, ok := s.engine.Table(r.table); ok && t.ColIndex(cr.Name) < 0 {
					continue
				}
				if !r.allowed[strings.ToLower(cr.Name)] {
					bad = &PermissionError{User: s.user, Action: ActionSelect,
						Object: r.table + "." + cr.Name}
				}
			}
		})
	}
	for _, it := range st.Items {
		checkRef(it.Expr)
	}
	checkRef(st.Where)
	checkRef(st.Having)
	for _, k := range st.OrderBy {
		checkRef(k.Expr)
	}
	for _, ge := range st.GroupBy {
		checkRef(ge)
	}
	return bad
}
