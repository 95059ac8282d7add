package sqldb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Morsel-driven execution.
//
// Every read-side operator (seq scan + filter, filter, projection, hash-join
// build and probe, GROUP BY / DISTINCT key builds, aggregates) partitions its
// input row slice into fixed-size morsels. Morsels are handed out
// dynamically through an atomic counter to a small set of workers drawn from
// a bounded per-engine pool; the calling goroutine always participates, so
// execution makes progress even when the pool is exhausted. Each morsel
// writes into its own output buffer; buffers are concatenated in morsel
// order at the end, which keeps row order — and therefore results —
// independent of the worker count.
//
// The worker count is derived from the input (see Session.fanout): one
// worker runs the morsels inline on the calling goroutine; more only when
// the input clears the engine's row threshold and no expression the
// operator evaluates contains a subquery, because subqueries execute
// through the session, which is not safe for concurrent use.
//
// Inside a morsel, expressions are evaluated against a *bound* copy of the
// tree (see bindExpr) in which every column reference that resolves against
// the operator's input layout has been replaced by a positional index at
// bind time, and one Env is reused across the morsel's rows.

const (
	// morselSize is the number of rows handed to a worker at a time.
	morselSize = 1024
	// defaultParallelThreshold is the minimum input row count before an
	// operator fans out to more than one worker.
	defaultParallelThreshold = 2048
)

// parallelConfig holds the engine's worker pool. slots has capacity
// workers-1: every statement brings its own goroutine and may borrow up to
// workers-1 extras, so total in-flight workers per statement never exceed
// the configured count while concurrent statements share the same pool.
type parallelConfig struct {
	mu        sync.Mutex
	workers   int
	threshold int
	slots     chan struct{}
}

// SetParallelism configures query execution for the whole engine: workers
// is the maximum number of goroutines one operator may use (<=1 runs every
// operator's morsels inline on the statement's goroutine), threshold is the
// minimum input row count before an operator fans out. Zero values select
// the defaults (GOMAXPROCS workers, 2048-row threshold).
func (e *Engine) SetParallelism(workers, threshold int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if threshold <= 0 {
		threshold = defaultParallelThreshold
	}
	p := &e.par
	p.mu.Lock()
	defer p.mu.Unlock()
	p.workers = workers
	p.threshold = threshold
	p.slots = nil
	if workers > 1 {
		p.slots = make(chan struct{}, workers-1)
	}
}

// parallelism returns the current worker count, row threshold, and slot
// pool, applying defaults on first use.
func (e *Engine) parallelism() (workers, threshold int, slots chan struct{}) {
	p := &e.par
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers == 0 {
		p.workers = runtime.GOMAXPROCS(0)
		p.threshold = defaultParallelThreshold
		if p.workers > 1 {
			p.slots = make(chan struct{}, p.workers-1)
		}
	}
	return p.workers, p.threshold, p.slots
}

// fanout returns the worker count and slot pool for an operator over n
// input rows: one worker (inline, no pool) unless n clears the engine's
// threshold and none of the operator's bound expressions kept a subquery.
func (s *Session) fanout(n int, subquery bool) (int, chan struct{}) {
	w, thr, slots := s.engine.parallelism()
	if w <= 1 || n < thr || subquery {
		return 1, nil
	}
	m := &s.engine.metrics
	m.parBatches.Add(1)
	m.parMorsels.Add(int64(chunkCount(n, morselSize)))
	m.parWorkers.ObserveValue(int64(w))
	return w, slots
}

// chunkCount returns how many chunk-sized pieces cover n items.
func chunkCount(n, chunk int) int {
	return (n + chunk - 1) / chunk
}

// runChunked partitions [0, n) into chunk-sized pieces and calls fn once per
// piece. With one worker the pieces run in order on the caller; otherwise
// they are handed out dynamically, up to workers-1 extra goroutines are
// claimed from the slot pool without blocking, and the caller always
// participates. fn must be safe to call concurrently for distinct indexes.
func runChunked(slots chan struct{}, workers, n, chunk int, fn func(idx, start, end int)) {
	nc := chunkCount(n, chunk)
	if workers <= 1 || slots == nil || nc <= 1 {
		for c := 0; c < nc; c++ {
			fn(c, c*chunk, min(c*chunk+chunk, n))
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= nc {
				return
			}
			fn(c, c*chunk, min(c*chunk+chunk, n))
		}
	}
	workers = min(workers, nc)
	var wg sync.WaitGroup
	for i := 0; i < workers-1; i++ {
		select {
		case slots <- struct{}{}:
		default:
			i = workers // pool exhausted; run with what we have
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			work()
		}()
	}
	work()
	wg.Wait()
}

// firstError returns the error from the lowest-indexed chunk: the first
// error in row order, whatever the worker count.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// boundColRef is a column reference resolved to a positional index at bind
// time. Eval is a slice load — no name lookup, no allocation.
type boundColRef struct {
	idx  int
	orig *ColumnRef
}

func (b *boundColRef) Eval(env *Env) (Value, error) {
	return env.vals[b.idx], nil
}

func (b *boundColRef) String() string { return b.orig.String() }

// resolveEnvCol mirrors Env.Lookup's resolution rules against a fixed
// column layout: qualified references take the first matching column;
// unqualified references must be unambiguous. It returns -1 whenever
// Env.Lookup would consult the outer env or report an error.
func resolveEnvCol(c *ColumnRef, cols []envCol) int {
	table := strings.ToLower(c.Table)
	name := strings.ToLower(c.Name)
	idx := -1
	for i := range cols {
		if cols[i].name != name {
			continue
		}
		if table != "" && cols[i].table != table {
			continue
		}
		if idx >= 0 {
			if table == "" {
				return -1 // ambiguous
			}
			continue // qualified: first match wins
		}
		idx = i
	}
	return idx
}

// binder binds the expressions of one operator against its input layout
// and records whether any of them kept a subquery (see Session.fanout).
type binder struct {
	cols     []envCol
	subquery bool
	// keep leaves expressions unbound: over at most one input row each is
	// evaluated at most once, so binding would cost more than the name
	// lookups it saves. Such an input never fans out, so the subquery flag
	// is not needed either.
	keep bool
}

// newBinder returns the binder for an operator that evaluates its
// expressions over n input rows laid out as cols.
func newBinder(cols []envCol, n int) binder {
	return binder{cols: cols, keep: n <= 1}
}

// bindExpr clones e with every column reference that resolves against the
// binder's layout replaced by a positional index. Whatever it cannot bind it
// keeps, so evaluation semantics never change:
//   - a reference that does not resolve locally (ambiguous, unknown, or an
//     outer-row column) stays the original *ColumnRef, and Env.Lookup
//     resolves or reports it per row;
//   - an aggregate call keeps its original node, the key of Env.agg;
//   - a subquery is kept whole and runs through the Env's session, with the
//     evaluating Env as its outer row.
func (b *binder) bindExpr(e Expr) Expr {
	if b.keep {
		return e
	}
	switch x := e.(type) {
	case *ColumnRef:
		if idx := resolveEnvCol(x, b.cols); idx >= 0 {
			return &boundColRef{idx: idx, orig: x}
		}
	case *SubqueryExpr:
		b.subquery = true
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: b.bindExpr(x.Left), Right: b.bindExpr(x.Right)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Operand: b.bindExpr(x.Operand)}
	case *FuncExpr:
		if !x.IsAggregate() {
			return &FuncExpr{Name: x.Name, Args: b.bindExprs(x.Args), Star: x.Star, Distinct: x.Distinct}
		}
	case *InExpr:
		b.subquery = b.subquery || x.Subquery != nil
		return &InExpr{Operand: b.bindExpr(x.Operand), List: b.bindExprs(x.List), Subquery: x.Subquery, Not: x.Not}
	case *BetweenExpr:
		return &BetweenExpr{Operand: b.bindExpr(x.Operand), Low: b.bindExpr(x.Low), High: b.bindExpr(x.High), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{Operand: b.bindExpr(x.Operand), Pattern: b.bindExpr(x.Pattern), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{Operand: b.bindExpr(x.Operand), Not: x.Not}
	case *CastExpr:
		return &CastExpr{Operand: b.bindExpr(x.Operand), Target: x.Target}
	case *CaseExpr:
		out := &CaseExpr{Whens: make([]CaseWhen, len(x.Whens)), Else: b.bindExpr(x.Else)}
		for i, w := range x.Whens {
			out.Whens[i] = CaseWhen{Cond: b.bindExpr(w.Cond), Result: b.bindExpr(w.Result)}
		}
		return out
	}
	return e
}

func (b *binder) bindExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = b.bindExpr(e)
	}
	return out
}

// scanTable reads the rows of a table visible to the statement snapshot and
// keeps those that satisfy cond (nil keeps all), checking visibility and the
// predicate in the same morsel pass so filtered-out rows never materialize.
// A name that resolves to a view materializes the view and filters its
// rows. visited is the number of rows read before the filter.
func (s *Session) scanTable(name, alias string, cond Expr, outer *Env) (rs *rowSet, visited int, err error) {
	t, ok := s.engine.Table(name)
	if !ok {
		// Views expand to their stored query's result, aliased under the
		// view's name (owner-style privileges: the outer statement needed
		// SELECT on the view itself, not on its underlying tables).
		v, isView := s.engine.ViewByName(name)
		if !isView {
			return nil, 0, &NotFoundError{Kind: "table", Name: name}
		}
		if rs, err = s.scanView(v, alias); err != nil {
			return nil, 0, err
		}
		visited = len(rs.rows)
		rs, err = s.applyFilter(cond, rs, outer)
		return rs, visited, err
	}
	q := strings.ToLower(alias)
	if q == "" {
		q = strings.ToLower(name)
	}
	cols := make([]string, 0, len(t.Columns))
	for _, c := range t.Columns {
		cols = append(cols, q+"."+strings.ToLower(c.Name))
	}
	//sqlvet:ignore mvccvisibility -- morsel fan-out snapshots the heap slice under the engine read lock and every row still goes through visible() below before it is emitted
	heap := t.rows
	sn := s.curView
	b := newBinder(toEnvCols(cols), len(heap))
	bound := b.bindExpr(cond)
	workers, slots := s.fanout(t.RowCount(), b.subquery)
	rows, visited, err := filterRows(s, b.cols, heap, func(e *rowEntry) ([]Value, bool) {
		v := e.visible(sn)
		if v == nil {
			return nil, false
		}
		return v.vals, true
	}, bound, outer, workers, slots)
	s.engine.scanRowsVisited.Add(int64(visited))
	if err != nil {
		return nil, visited, err
	}
	return &rowSet{cols: cols, rows: rows, env: b.cols}, visited, nil
}

// applyFilter filters a rowSet by a predicate; a nil predicate passes rows
// through unchanged.
func (s *Session) applyFilter(cond Expr, src *rowSet, outer *Env) (*rowSet, error) {
	if cond == nil {
		return src, nil
	}
	b := newBinder(src.envCols(), len(src.rows))
	bound := b.bindExpr(cond)
	workers, slots := s.fanout(len(src.rows), b.subquery)
	rows, _, err := filterRows(s, b.cols, src.rows, func(r []Value) ([]Value, bool) { return r, true }, bound, outer, workers, slots)
	if err != nil {
		return nil, err
	}
	return &rowSet{cols: src.cols, rows: rows, env: b.cols}, nil
}

// filterRows evaluates the bound predicate over the candidates in morsels
// and keeps, in order, the rows for which it is true; a nil predicate keeps
// every candidate. row yields a candidate's values, or false to skip it
// uncounted. visited counts the candidates evaluated; on error it covers the
// morsels read.
func filterRows[T any](s *Session, envCols []envCol, in []T, row func(T) ([]Value, bool), bound Expr, outer *Env, workers int, slots chan struct{}) ([][]Value, int, error) {
	// Each morsel's Env lives in its part, which saves an allocation per
	// morsel; tiny inputs (point lookups) are one morsel.
	type part struct {
		out     [][]Value
		visited int
		err     error
		env     Env
	}
	parts := make([]part, chunkCount(len(in), morselSize))
	runChunked(slots, workers, len(in), morselSize, func(m, start, end int) {
		p := &parts[m]
		p.out = make([][]Value, 0, end-start)
		env := &p.env
		*env = Env{cols: envCols, outer: outer, sess: s}
		for _, cand := range in[start:end] {
			vals, ok := row(cand)
			if !ok {
				continue
			}
			p.visited++
			if bound != nil {
				env.vals = vals
				v, err := bound.Eval(env)
				if err != nil {
					p.err = err
					return
				}
				if v.IsNull() || !v.Truthy() {
					continue
				}
			}
			p.out = append(p.out, vals)
		}
	})
	var visited, total int
	var err error
	for i := range parts {
		visited += parts[i].visited
		total += len(parts[i].out)
		if err == nil {
			err = parts[i].err
		}
	}
	if err != nil {
		return nil, visited, err
	}
	if len(parts) == 1 {
		return parts[0].out, visited, nil
	}
	// One exact-size result buffer built from the per-morsel counts.
	out := make([][]Value, 0, total)
	for i := range parts {
		out = append(out, parts[i].out...)
	}
	return out, visited, nil
}

// groupKeys evaluates the bound GROUP BY expressions over every row in
// morsels and returns one composite key per row.
func (s *Session) groupKeys(exprs []Expr, envCols []envCol, rows [][]Value, outer *Env, workers int, slots chan struct{}) ([]string, error) {
	keys := make([]string, len(rows))
	errs := make([]error, chunkCount(len(rows), morselSize))
	runChunked(slots, workers, len(rows), morselSize, func(m, start, end int) {
		env := &Env{cols: envCols, outer: outer, sess: s}
		var buf []byte
		for i := start; i < end; i++ {
			buf = buf[:0]
			env.vals = rows[i]
			for _, ge := range exprs {
				gv, err := ge.Eval(env)
				if err != nil {
					errs[m] = err
					return
				}
				buf = appendKeySegment(buf, gv)
			}
			keys[i] = string(buf)
		}
	})
	return keys, firstError(errs)
}

// valueKeys computes rows[i][col].Key() for every row in morsels; the
// hash-join build and probe sides use it to precompute join keys.
func valueKeys(rows [][]Value, col, workers int, slots chan struct{}) []string {
	keys := make([]string, len(rows))
	runChunked(slots, workers, len(rows), morselSize, func(_, start, end int) {
		for i := start; i < end; i++ {
			keys[i] = rows[i][col].Key()
		}
	})
	return keys
}

type groupResult struct {
	firstRow []Value
	rows     [][]Value
	agg      map[Expr]Value
}

// groupRows partitions rows by the GROUP BY keys and computes every
// aggregate node once per group. Group keys are computed over the input in
// morsels; the hash build runs sequentially over the precomputed keys
// (preserving first-appearance group order and within-group row order);
// per-group aggregates are then computed across groups. Without GROUP BY
// the whole input is one group — also when it is empty, so SELECT COUNT(*)
// FROM empty yields one row.
func (s *Session) groupRows(st *SelectStmt, src *rowSet, outer *Env) ([]*groupResult, error) {
	envCols := src.envCols()
	b := newBinder(envCols, len(src.rows))
	groupExprs := b.bindExprs(st.GroupBy)
	aggNodes := collectAggNodes(st)
	boundArgs := make([]Expr, len(aggNodes))
	for i, f := range aggNodes {
		if len(f.Args) == 1 {
			boundArgs[i] = b.bindExpr(f.Args[0])
		}
	}
	workers, slots := s.fanout(len(src.rows), b.subquery)

	order := []*groupResult{} // non-nil: project treats the rows as groups
	if len(st.GroupBy) == 0 {
		g := &groupResult{rows: src.rows}
		if len(src.rows) > 0 {
			g.firstRow = src.rows[0]
		} else {
			g.firstRow = make([]Value, len(src.cols))
			for i := range g.firstRow {
				g.firstRow[i] = Null()
			}
		}
		order = append(order, g)
	} else {
		keys, err := s.groupKeys(groupExprs, envCols, src.rows, outer, workers, slots)
		if err != nil {
			return nil, err
		}
		keyed := map[string]*groupResult{}
		for i, vals := range src.rows {
			g, ok := keyed[keys[i]]
			if !ok {
				g = &groupResult{firstRow: vals}
				keyed[keys[i]] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, vals)
		}
	}

	errs := make([]error, len(order))
	runChunked(slots, workers, len(order), 1, func(gi, _, _ int) {
		g := order[gi]
		g.agg = make(map[Expr]Value, len(aggNodes))
		env := &Env{cols: envCols, outer: outer, sess: s}
		for i, f := range aggNodes {
			v, err := evalAggregate(f, boundArgs[i], env, g.rows)
			if err != nil {
				errs[gi] = err
				return
			}
			g.agg[f] = v
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return order, nil
}

// evalAggregate computes one aggregate over a group's rows: arg is the
// call's bound argument, and env is reused across rows. Values are collected
// in within-group row order, so float SUM/AVG results do not depend on the
// worker count.
func evalAggregate(f *FuncExpr, arg Expr, env *Env, rows [][]Value) (Value, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return Value{}, fmt.Errorf("%s(*) is not supported", f.Name)
		}
		return NewInt(int64(len(rows))), nil
	}
	if len(f.Args) != 1 {
		return Value{}, fmt.Errorf("%s expects exactly one argument", f.Name)
	}
	var vals []Value
	distinct := map[string]bool{}
	for _, row := range rows {
		env.vals = row
		v, err := arg.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if f.Distinct {
			k := v.Key()
			if distinct[k] {
				continue
			}
			distinct[k] = true
		}
		vals = append(vals, v)
	}
	return finishAggregate(f, vals)
}

// project evaluates the select list over the input in morsels. Each output
// row carries, after the select list, the values of extra: the ORDER BY
// keys the sort stage cannot read off the output row. With groups non-nil
// the input is one row per group — its first row, with the group's
// aggregate values — and having drops groups before they are projected.
func (s *Session) project(items []SelectItem, extra []Expr, having Expr, src *rowSet, groups []*groupResult, outer *Env) ([][]Value, error) {
	n := len(src.rows)
	if groups != nil {
		n = len(groups)
	}
	envCols := src.envCols()
	b := newBinder(envCols, n)
	type projItem struct {
		idxs  []int // star: source positions to copy
		bound Expr  // non-star: bound expression
	}
	plan := make([]projItem, 0, len(items)+len(extra))
	width := 0
	for _, it := range items {
		if !it.Star {
			plan = append(plan, projItem{bound: b.bindExpr(it.Expr)})
			width++
			continue
		}
		var idxs []int
		for j, q := range src.cols {
			tbl, _ := splitQualified(q)
			if it.Table == "" || strings.EqualFold(tbl, it.Table) {
				idxs = append(idxs, j)
			}
		}
		plan = append(plan, projItem{idxs: idxs})
		width += len(idxs)
	}
	for _, e := range extra {
		plan = append(plan, projItem{bound: b.bindExpr(e)})
		width++
	}
	boundHaving := b.bindExpr(having)
	workers, slots := s.fanout(n, b.subquery)
	type part struct {
		out [][]Value
		err error
		env Env // the morsel's Env, as in filterRows
	}
	parts := make([]part, chunkCount(n, morselSize))
	runChunked(slots, workers, n, morselSize, func(m, start, end int) {
		p := &parts[m]
		p.out = make([][]Value, 0, end-start)
		env := &p.env
		*env = Env{cols: envCols, outer: outer, sess: s}
		for i := start; i < end; i++ {
			if groups != nil {
				env.vals, env.agg = groups[i].firstRow, groups[i].agg
			} else {
				env.vals = src.rows[i]
			}
			if boundHaving != nil {
				hv, err := boundHaving.Eval(env)
				if err != nil {
					p.err = err
					return
				}
				if hv.IsNull() || !hv.Truthy() {
					continue
				}
			}
			row := make([]Value, 0, width)
			for _, pi := range plan {
				if pi.bound == nil {
					for _, j := range pi.idxs {
						row = append(row, env.vals[j])
					}
					continue
				}
				v, err := pi.bound.Eval(env)
				if err != nil {
					p.err = err
					return
				}
				row = append(row, v)
			}
			p.out = append(p.out, row)
		}
	})
	total := 0
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
		total += len(parts[i].out)
	}
	if len(parts) == 1 {
		return parts[0].out, nil
	}
	out := make([][]Value, 0, total)
	for i := range parts {
		out = append(out, parts[i].out...)
	}
	return out, nil
}

// hashJoin is the equi-join: join keys for both sides are computed in
// morsels, the hash table is built sequentially from the precomputed
// build-side keys (preserving bucket order, one shared index arena instead
// of a slice per key), and the probe side is scanned in morsels with
// per-morsel output buffers concatenated in morsel order.
func hashJoin(out *rowSet, left, right *rowSet, li, ri, workers int, slots chan struct{}) *rowSet {
	rkeys := valueKeys(right.rows, ri, workers, slots)
	ht := make(map[string][]int, len(right.rows))
	arena := make([]int, 0, len(right.rows))
	for idx := range right.rows {
		k := rkeys[idx]
		if b, hit := ht[k]; hit {
			ht[k] = append(b, idx)
		} else {
			arena = append(arena, idx)
			ht[k] = arena[len(arena)-1 : len(arena) : len(arena)]
		}
	}
	lkeys := valueKeys(left.rows, li, workers, slots)
	parts := make([][][]Value, chunkCount(len(left.rows), morselSize))
	runChunked(slots, workers, len(left.rows), morselSize, func(m, start, end int) {
		var buf [][]Value
		for i := start; i < end; i++ {
			lrow := left.rows[i]
			if lrow[li].IsNull() {
				continue
			}
			for _, idx := range ht[lkeys[i]] {
				rrow := right.rows[idx]
				combined := make([]Value, 0, len(lrow)+len(rrow))
				combined = append(combined, lrow...)
				combined = append(combined, rrow...)
				buf = append(buf, combined)
			}
		}
		parts[m] = buf
	})
	var total int
	for _, p := range parts {
		total += len(p)
	}
	out.rows = make([][]Value, 0, total)
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	return out
}

// distinctRows drops rows whose first width values repeat an earlier row's,
// keeping first appearances in order. The composite keys are computed in
// morsels; the dedup loop consumes them sequentially.
func (s *Session) distinctRows(rows [][]Value, width int) [][]Value {
	workers, slots := s.fanout(len(rows), false)
	keys := make([]string, len(rows))
	runChunked(slots, workers, len(rows), morselSize, func(_, start, end int) {
		var buf []byte
		for i := start; i < end; i++ {
			buf = buf[:0]
			for _, v := range rows[i][:width] {
				buf = appendKeySegment(buf, v)
			}
			keys[i] = string(buf)
		}
	})
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for i, row := range rows {
		if seen[keys[i]] {
			continue
		}
		seen[keys[i]] = true
		out = append(out, row)
	}
	return out
}
