package sqldb

import (
	"fmt"
	"strings"
)

// The planner lowers parsed statements into plan trees. For SELECT it
// performs two classic optimizations on top of straight lowering:
//
//   - predicate pushdown: the WHERE clause is split into AND conjuncts and
//     every conjunct that references a single FROM source is evaluated
//     directly above that source's scan, before any join multiplies rows;
//   - access-path selection: a pushed `col = literal` conjunct on a column
//     with a hash index or a single-column primary key turns the sequential
//     scan into an index scan; failing that, range conjuncts (`<`, `<=`,
//     `>`, `>=`, BETWEEN) on a column with an ordered index or single-column
//     primary key merge into an index range scan that visits only in-range
//     rows (the conjuncts are still re-checked by the filter, so both paths
//     are purely a row-count reduction);
//   - sort/limit pushdown: for single-table queries whose ORDER BY key is
//     the ordered column of an index range scan (or any ordered column, by
//     upgrading the seq scan), the scan emits rows in index order and the
//     executor skips its sort; when LIMIT/OFFSET are literals and the
//     scan's bounds imply the whole pushed filter, the limit fuses into the
//     scan as a Top-K cutoff that stops after offset+limit rows.
//
// Pushdown is skipped when the FROM clause contains a LEFT JOIN (filtering
// the null-supplying side before the join would change results) or a view
// (whose output columns are only known at run time).

// planSelect lowers a SELECT into a SelectPlan. It only consults the
// catalog, never row data; callers hold at least a read lock.
func (s *Session) planSelect(st *SelectStmt) *SelectPlan {
	if len(st.From) == 0 {
		return &SelectPlan{Stmt: st}
	}

	sources := make([]SourceNode, len(st.From))
	pushable := true
	for i, ref := range st.From {
		sources[i] = s.planScan(ref)
		if sources[i].staticCols() == nil {
			pushable = false
		}
		if i > 0 && ref.JoinKind == JoinLeft {
			pushable = false
		}
	}

	conjuncts := splitConjuncts(st.Where)
	pushed := make([][]Expr, len(sources))
	var residual []Expr
	switch {
	case st.Where == nil:
		// nothing to place
	case len(st.From) == 1:
		pushed[0] = conjuncts
	case pushable:
		for _, c := range conjuncts {
			if i, ok := owningSource(c, sources); ok {
				pushed[i] = append(pushed[i], c)
			} else {
				residual = append(residual, c)
			}
		}
	default:
		residual = conjuncts
	}

	for i := range sources {
		if len(pushed[i]) == 0 {
			continue
		}
		sources[i] = s.chooseAccessPath(st.From[i], sources[i], pushed[i])
		if rx, ok := sources[i].(*IndexRangeScanNode); ok && rx.CoversFilter {
			// The scan's bounds imply every pushed conjunct (they were built
			// from exactly these conjuncts, and bucket members compare equal
			// to the ordered key), so the per-row re-check is pure overhead —
			// the bounds in the scan label are the filter, like a PostgreSQL
			// Index Cond.
			continue
		}
		sources[i] = &FilterNode{Cond: andAll(pushed[i]), Input: sources[i]}
	}

	acc := sources[0]
	for i := 1; i < len(sources); i++ {
		ref := st.From[i]
		join := &JoinNode{Kind: ref.JoinKind, On: ref.On, Left: acc, Right: sources[i]}
		if lc, rc := acc.staticCols(), sources[i].staticCols(); lc != nil && rc != nil {
			join.cols = append(append([]string{}, lc...), rc...)
			join.Strategy = JoinStrategyNested
			if ref.JoinKind == JoinInner && ref.On != nil {
				if _, _, ok := equiJoinCols(ref.On, lc, rc); ok {
					join.Strategy = JoinStrategyHash
				}
			}
		}
		acc = join
	}

	plan := &SelectPlan{Stmt: st, Source: acc, Residual: andAll(residual)}
	if len(st.From) == 1 {
		s.pushSortAndLimit(plan)
	}
	// After access paths are final: ordered (index) scans are never
	// parallelized — their row order is a promise the sort/Top-K pushdown
	// relies on — so only the seq scans that survived are considered.
	s.markParallelScans(plan)
	return plan
}

// markParallelScans records the engine's worker count on the plan's
// remaining sequential scans whose table clears the row-count threshold, so
// EXPLAIN shows the fan-out the scan will use.
func (s *Session) markParallelScans(plan *SelectPlan) {
	if plan.Source == nil {
		return
	}
	workers, threshold, _ := s.engine.parallelism()
	var mark func(n SourceNode)
	mark = func(n SourceNode) {
		switch src := n.(type) {
		case *SeqScanNode:
			if src.cols == nil {
				return
			}
			if t, ok := s.engine.Table(src.Table); ok && t.RowCount() >= threshold {
				src.Workers = workers
			}
		case *FilterNode:
			mark(src.Input)
		case *JoinNode:
			mark(src.Left)
			mark(src.Right)
		}
	}
	mark(plan.Source)
}

// pushSortAndLimit pushes a single-key ORDER BY into an ordered index scan
// for single-table queries, and fuses LIMIT/OFFSET into the scan (Top-K)
// when the cutoff cannot change results. On success the plan's SortPushed /
// TopK flags tell the executor (and EXPLAIN) which pipeline stages moved
// into the scan.
func (s *Session) pushSortAndLimit(p *SelectPlan) {
	st := p.Stmt
	// Grouping/aggregation and DISTINCT reshape rows after the scan; a
	// multi-key sort needs a real sort. All keep the sort stage.
	if s.forceSeqScan {
		return
	}
	if len(st.OrderBy) != 1 || st.Distinct || len(st.GroupBy) > 0 || selectHasAggregate(st) {
		return
	}
	key := st.OrderBy[0]
	cr, ok := key.Expr.(*ColumnRef)
	if !ok {
		return
	}
	// orderRows resolves output aliases before source columns; a select-item
	// alias with the key's name shadows the table column, so pushing the
	// source column would sort by the wrong values.
	for _, it := range st.Items {
		if strings.EqualFold(it.Alias, cr.Name) {
			return
		}
	}
	// Peel the pushed filter (if any) to reach the scan.
	src := p.Source
	filter, _ := src.(*FilterNode)
	if filter != nil {
		src = filter.Input
	}
	var scan *IndexRangeScanNode
	switch n := src.(type) {
	case *IndexRangeScanNode:
		// The range scan must already be on the sort column; a scan ordered
		// by one column cannot emit another column's order.
		if resolveIn(cr, n.cols) != n.col {
			return
		}
		scan = n
	case *SeqScanNode:
		if n.cols == nil {
			return
		}
		col := resolveIn(cr, n.cols)
		if col < 0 {
			return
		}
		t, ok := s.engine.Table(n.Table)
		if !ok {
			return
		}
		via, ok := t.eqAccessPath(col)
		if !ok {
			return
		}
		// Upgrade to an unbounded ordered scan: all rows, index order.
		scan = &IndexRangeScanNode{
			Table:  n.Table,
			Alias:  n.Alias,
			Column: t.Columns[col].Name,
			Via:    via,
			// No bounds were extracted, so the scan absorbs no conjuncts:
			// only a filter-less plan lets LIMIT fuse.
			CoversFilter: filter == nil,
			col:          col,
			cols:         n.cols,
		}
		if filter != nil {
			filter.Input = scan
		} else {
			p.Source = scan
		}
	default:
		return
	}
	scan.Desc = key.Desc
	scan.Order = orderKeyLabel(key)
	p.SortPushed = true

	// Top-K: fuse LIMIT/OFFSET into the scan. Safe only when the emitted
	// rows reach the limit stage unfiltered (the scan's bounds imply every
	// pushed conjunct and nothing stayed residual) and the cutoff is a
	// plan-time constant.
	if !scan.CoversFilter || p.Residual != nil || st.Limit == nil {
		return
	}
	limit, ok := literalIntAtLeastZero(st.Limit)
	if !ok {
		return
	}
	offset := 0
	if st.Offset != nil {
		if offset, ok = literalIntAtLeastZero(st.Offset); !ok {
			return
		}
	}
	max := limit + offset
	if max <= 0 {
		// LIMIT 0 (with OFFSET 0) returns nothing; MaxRows 0 means
		// "unlimited" to the scan, so fusing would promise a cutoff that
		// never happens. Leave the ordinary Limit stage to slice to zero.
		return
	}
	scan.MaxRows = max
	p.TopK = true
}

// literalIntAtLeastZero unwraps a plan-time non-negative integer literal.
func literalIntAtLeastZero(e Expr) (int, bool) {
	lit, ok := e.(*Literal)
	if !ok || lit.Val.Kind != KindInt || lit.Val.I < 0 || lit.Val.I > 1<<31 {
		return 0, false
	}
	return int(lit.Val.I), true
}

// planScan lowers one FROM entry into a scan node.
func (s *Session) planScan(ref TableRef) SourceNode {
	if _, ok := s.engine.Table(ref.Table); ok {
		return &SeqScanNode{Table: ref.Table, Alias: ref.Alias, cols: qualifiedCols(s.engine, ref)}
	}
	if _, ok := s.engine.ViewByName(ref.Table); ok {
		return &ViewScanNode{View: ref.Table, Alias: ref.Alias}
	}
	// Unknown name: lower to a seq scan whose execution reports the
	// NotFoundError, keeping the planner infallible.
	return &SeqScanNode{Table: ref.Table, Alias: ref.Alias}
}

// chooseAccessPath upgrades a seq scan when the pushed conjuncts admit one:
// an equality index scan for `col = literal` on an indexed or primary-key
// column (hash lookup, O(1)), else an index range scan when range conjuncts
// cover a column with an ordered structure.
func (s *Session) chooseAccessPath(ref TableRef, src SourceNode, pushed []Expr) SourceNode {
	scan, ok := src.(*SeqScanNode)
	if !ok || scan.cols == nil || s.forceSeqScan {
		return src
	}
	if ix := s.indexScanFor(ref.Table, ref.Alias, andAll(pushed), scan.cols); ix != nil {
		return ix
	}
	if rx := s.rangeScanFor(ref.Table, ref.Alias, pushed, scan.cols); rx != nil {
		return rx
	}
	return src
}

// rangeBound is one side of a half-open or closed interval.
type rangeBound struct {
	val  Value
	incl bool
}

// rangeScanFor merges the range conjuncts (`<`, `<=`, `>`, `>=`, BETWEEN
// with literal bounds) on one ordered column into an index range scan, or
// returns nil when no pushed conjunct ranges over a column with an ordered
// access path. The scan remembers whether its bounds imply the entire
// pushed predicate (CoversFilter) — the precondition for fusing LIMIT into
// the scan later. Shared by SELECT scans and the UPDATE/DELETE write
// planner, like indexScanFor.
func (s *Session) rangeScanFor(table, alias string, pushed []Expr, cols []string) *IndexRangeScanNode {
	t, ok := s.engine.Table(table)
	if !ok {
		return nil
	}
	// Pick the first conjunct's column that has an ordered access path.
	chosen, via := -1, ""
	for _, c := range pushed {
		col, _, _, ok := rangeConjunct(c, cols, t)
		if !ok {
			continue
		}
		if v, ok := t.eqAccessPath(col); ok {
			chosen, via = col, v
			break
		}
	}
	if chosen < 0 {
		return nil
	}
	// Merge every conjunct on that column into the tightest bound pair.
	var lo, hi *rangeBound
	absorbed := 0
	for _, c := range pushed {
		col, clo, chi, ok := rangeConjunct(c, cols, t)
		if !ok || col != chosen {
			continue
		}
		lo = tightenLo(lo, clo)
		hi = tightenHi(hi, chi)
		absorbed++
	}
	n := &IndexRangeScanNode{
		Table:        table,
		Alias:        alias,
		Column:       t.Columns[chosen].Name,
		Via:          via,
		CoversFilter: absorbed == len(pushed),
		col:          chosen,
		cols:         cols,
	}
	if lo != nil {
		n.Lo, n.LoIncl = &lo.val, lo.incl
	}
	if hi != nil {
		n.Hi, n.HiIncl = &hi.val, hi.incl
	}
	return n
}

// tightenLo keeps the stricter (larger, or equal-but-exclusive) lower bound.
func tightenLo(cur, cand *rangeBound) *rangeBound {
	if cand == nil {
		return cur
	}
	if cur == nil {
		return cand
	}
	switch c := orderCompare(cand.val, cur.val); {
	case c > 0:
		return cand
	case c == 0 && !cand.incl:
		return cand
	}
	return cur
}

// tightenHi keeps the stricter (smaller, or equal-but-exclusive) upper bound.
func tightenHi(cur, cand *rangeBound) *rangeBound {
	if cand == nil {
		return cur
	}
	if cur == nil {
		return cand
	}
	switch c := orderCompare(cand.val, cur.val); {
	case c < 0:
		return cand
	case c == 0 && !cand.incl:
		return cand
	}
	return cur
}

// rangeConjunct recognizes one range conjunct over a scanned column:
// `col < lit`, `col <= lit`, `col > lit`, `col >= lit` (either operand
// order) or `col BETWEEN lit AND lit`. The literal must be comparable with
// the column's type (numeric with numeric, otherwise same kind) so the
// ordered structure's order agrees with the predicate's Compare.
func rangeConjunct(c Expr, cols []string, t *Table) (col int, lo, hi *rangeBound, ok bool) {
	resolve := func(cr *ColumnRef, v Value) (int, bool) {
		i := resolveIn(cr, cols)
		if i < 0 || i >= len(t.Columns) || !rangeBoundCompatible(v, t.Columns[i].Type) {
			return -1, false
		}
		return i, true
	}
	switch e := c.(type) {
	case *BinaryExpr:
		op := e.Op
		if op != "<" && op != "<=" && op != ">" && op != ">=" {
			return 0, nil, nil, false
		}
		cr, crOK := e.Left.(*ColumnRef)
		lit, litOK := e.Right.(*Literal)
		if !crOK || !litOK {
			// Literal on the left: `lit < col` means `col > lit`.
			if cr, crOK = e.Right.(*ColumnRef); !crOK {
				return 0, nil, nil, false
			}
			if lit, litOK = e.Left.(*Literal); !litOK {
				return 0, nil, nil, false
			}
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		i, found := resolve(cr, lit.Val)
		if !found {
			return 0, nil, nil, false
		}
		b := &rangeBound{val: lit.Val, incl: op == "<=" || op == ">="}
		if op == "<" || op == "<=" {
			return i, nil, b, true
		}
		return i, b, nil, true
	case *BetweenExpr:
		if e.Not {
			return 0, nil, nil, false
		}
		cr, crOK := e.Operand.(*ColumnRef)
		loLit, loOK := e.Low.(*Literal)
		hiLit, hiOK := e.High.(*Literal)
		if !crOK || !loOK || !hiOK {
			return 0, nil, nil, false
		}
		i, found := resolve(cr, loLit.Val)
		if !found || !rangeBoundCompatible(hiLit.Val, t.Columns[i].Type) {
			return 0, nil, nil, false
		}
		return i, &rangeBound{val: loLit.Val, incl: true}, &rangeBound{val: hiLit.Val, incl: true}, true
	}
	return 0, nil, nil, false
}

// rangeBoundCompatible reports whether a literal bound orders consistently
// against values of the column type under Compare.
func rangeBoundCompatible(v Value, colType Kind) bool {
	if v.IsNull() {
		return false
	}
	switch colType {
	case KindInt, KindFloat:
		return v.Kind == KindInt || v.Kind == KindFloat
	default:
		return v.Kind == colType
	}
}

// indexScanFor builds an index scan serving a `col = literal` conjunct of
// where on an indexed or primary-key column, or nil when no access path
// applies. It is the single access-path selection rule, shared by SELECT
// scans and the UPDATE/DELETE write planner so the two can never diverge.
func (s *Session) indexScanFor(table, alias string, where Expr, cols []string) *IndexScanNode {
	t, ok := s.engine.Table(table)
	if !ok {
		return nil
	}
	col, val, ok := indexableEq(where, cols)
	if !ok {
		return nil
	}
	via, ok := t.eqAccessPath(col)
	if !ok {
		return nil
	}
	return &IndexScanNode{
		Table:  table,
		Alias:  alias,
		Column: t.Columns[col].Name,
		Via:    via,
		Val:    val,
		col:    col,
		cols:   cols,
	}
}

// qualifiedCols computes the qualified output columns of a base-table scan.
func qualifiedCols(e *Engine, ref TableRef) []string {
	t, ok := e.Table(ref.Table)
	if !ok {
		return nil
	}
	q := strings.ToLower(ref.Alias)
	if q == "" {
		q = strings.ToLower(ref.Table)
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = q + "." + strings.ToLower(c.Name)
	}
	return cols
}

// splitConjuncts flattens a predicate into its top-level AND conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.Left), splitConjuncts(be.Right)...)
	}
	return []Expr{e}
}

// andAll rebuilds a conjunction from its parts; nil for an empty list.
func andAll(parts []Expr) Expr {
	if len(parts) == 0 {
		return nil
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: p}
	}
	return out
}

// owningSource reports the single FROM source a conjunct's column references
// all resolve to. Conjuncts with subqueries, no column references, outer
// (correlated) references, or references spanning sources stay residual.
func owningSource(c Expr, sources []SourceNode) (int, bool) {
	owner := -1
	ok := true
	sawRef := false
	walkExpr(c, func(x Expr) {
		if !ok {
			return
		}
		if _, isSub := x.(*SubqueryExpr); isSub {
			ok = false
			return
		}
		cr, isRef := x.(*ColumnRef)
		if !isRef {
			return
		}
		sawRef = true
		hit := -1
		for i, src := range sources {
			cols := src.staticCols()
			if cols == nil {
				ok = false
				return
			}
			if resolveIn(cr, cols) >= 0 {
				if hit >= 0 {
					// Resolves in more than one source: ambiguous.
					ok = false
					return
				}
				hit = i
			}
		}
		if hit < 0 {
			// Unresolvable here (outer reference); keep residual so the
			// enclosing query's environment stays in scope.
			ok = false
			return
		}
		if owner >= 0 && owner != hit {
			ok = false
			return
		}
		owner = hit
	})
	if !ok || !sawRef || owner < 0 {
		return 0, false
	}
	return owner, true
}

// eqAccessPath reports how an equality on column col can be served without
// a full scan: via the single-column primary key or a hash index.
func (t *Table) eqAccessPath(col int) (string, bool) {
	if len(t.pkCols) == 1 && t.pkCols[0] == col {
		return "primary key", true
	}
	if ix, ok := t.indexes[strings.ToLower(t.Columns[col].Name)]; ok {
		return "index " + ix.Name, true
	}
	return "", false
}

// planStmt lowers any explainable statement into a Plan.
func (s *Session) planStmt(stmt Stmt) (*Plan, error) {
	switch st := stmt.(type) {
	case *SelectStmt:
		sel := s.planSelect(st)
		// Execution reports missing tables lazily; an explained plan should
		// name the problem up front instead of showing a scan of nothing.
		if err := checkSourcesExist(sel.Source); err != nil {
			return nil, err
		}
		return &Plan{stmt: st, sel: sel, root: sel.Tree()}, nil
	case *InsertStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil, &NotFoundError{Kind: "table", Name: st.Table}
		}
		return &Plan{stmt: st, header: fmt.Sprintf("Insert on %s (%d rows)", st.Table, len(st.Rows)),
			root: resultNode{}}, nil
	case *UpdateStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil, &NotFoundError{Kind: "table", Name: st.Table}
		}
		wp := s.planWrite(st.Table, st.Where)
		return &Plan{stmt: st, write: wp, header: "Update on " + st.Table,
			root: wp.Tree()}, nil
	case *DeleteStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil, &NotFoundError{Kind: "table", Name: st.Table}
		}
		wp := s.planWrite(st.Table, st.Where)
		return &Plan{stmt: st, write: wp, header: "Delete on " + st.Table,
			root: wp.Tree()}, nil
	case *ExplainStmt:
		return nil, fmt.Errorf("cannot EXPLAIN an EXPLAIN statement")
	}
	return nil, fmt.Errorf("EXPLAIN does not support %s statements", verbOf(stmt))
}

// checkSourcesExist reports the first scan whose table resolved to nothing
// at plan time (planScan lowers unknown names to column-less seq scans).
func checkSourcesExist(n SourceNode) error {
	switch src := n.(type) {
	case nil:
		return nil
	case *SeqScanNode:
		if src.cols == nil {
			return &NotFoundError{Kind: "table", Name: src.Table}
		}
	case *FilterNode:
		return checkSourcesExist(src.Input)
	case *JoinNode:
		if err := checkSourcesExist(src.Left); err != nil {
			return err
		}
		return checkSourcesExist(src.Right)
	}
	return nil
}

// planWrite lowers the row-matching half of an UPDATE/DELETE into a
// WritePlan, applying the same access-path selection SELECT scans get: a
// `col = literal` conjunct on an indexed or primary-key column upgrades the
// sequential scan to an index scan, and failing that, range conjuncts on an
// ordered column upgrade it to an index range scan (the full WHERE is still
// re-checked per row). EXPLAIN renders this plan and the executor fetches
// rows through it, so the displayed access path is the executed one.
func (s *Session) planWrite(table string, where Expr) *WritePlan {
	src := s.planScan(TableRef{Table: table})
	if scan, ok := src.(*SeqScanNode); ok && scan.cols != nil && where != nil && !s.forceSeqScan {
		if ix := s.indexScanFor(table, "", where, scan.cols); ix != nil {
			src = ix
		} else if rx := s.rangeScanFor(table, "", splitConjuncts(where), scan.cols); rx != nil {
			src = rx
		}
	}
	return &WritePlan{Table: table, Access: src, Where: where}
}

func verbOf(stmt Stmt) string {
	switch stmt.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *UpdateStmt:
		return "UPDATE"
	case *DeleteStmt:
		return "DELETE"
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *DropTableStmt:
		return "DROP TABLE"
	case *CreateViewStmt:
		return "CREATE VIEW"
	case *DropViewStmt:
		return "DROP VIEW"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *AlterTableStmt:
		return "ALTER TABLE"
	case *GrantStmt:
		return "GRANT"
	case *RevokeStmt:
		return "REVOKE"
	case *BeginStmt:
		return "BEGIN"
	case *CommitStmt:
		return "COMMIT"
	case *RollbackStmt:
		return "ROLLBACK"
	case *ExplainStmt:
		return "EXPLAIN"
	}
	return fmt.Sprintf("%T", stmt)
}

// Plan parses sql and returns the engine's chosen plan without executing it,
// under the same privilege checks execution would apply.
func (s *Session) Plan(sql string) (*Plan, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	if ex, ok := stmt.(*ExplainStmt); ok {
		stmt = ex.Stmt
	}
	s.engine.mu.RLock()
	defer s.engine.mu.RUnlock()
	if err := s.checkStmtPrivileges(stmt); err != nil {
		return nil, err
	}
	return s.planStmt(stmt)
}
