package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// newParallelEngine builds an engine with the given worker count and a
// 64-row threshold (so modest test tables exercise the multi-worker paths),
// two randomized tables, a small fixed one, and an empty one.
func newParallelEngine(t testing.TB, seed int64, workers int) *Engine {
	t.Helper()
	e := NewEngine("partest")
	e.SetParallelism(workers, 64)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE t1 (id INT PRIMARY KEY, grp INT, val REAL, name TEXT)")
	s.MustExec("CREATE TABLE t2 (id INT PRIMARY KEY, grp INT, tag TEXT)")
	s.MustExec("CREATE TABLE small (id INT PRIMARY KEY, k INT)")
	s.MustExec("CREATE TABLE empty (id INT PRIMARY KEY, g INT, v INT)")
	insertBatch(s, "small", 40, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%7) })
	rng := rand.New(rand.NewSource(seed))
	names := []string{"'alpha'", "'beta'", "'gamma'", "'delta'", "NULL"}
	tags := []string{"'x'", "'y'", "'z'", "NULL"}
	insertBatch(s, "t1", 3000, func(i int) string {
		return fmt.Sprintf("(%d, %d, %g, %s)", i, rng.Intn(20), float64(rng.Intn(10000))/10, names[rng.Intn(len(names))])
	})
	insertBatch(s, "t2", 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, %s)", i, rng.Intn(20), tags[rng.Intn(len(tags))])
	})
	return e
}

// newEnginePair builds the same seeded data on a one-worker and a
// four-worker engine.
func newEnginePair(t testing.TB, seed int64) (one, four *Engine) {
	return newParallelEngine(t, seed, 1), newParallelEngine(t, seed, 4)
}

func insertBatch(s *Session, table string, n int, row func(i int) string) {
	const batch = 500
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		vals := make([]string, 0, end-start)
		for i := start; i < end; i++ {
			vals = append(vals, row(i))
		}
		s.MustExec("INSERT INTO " + table + " VALUES " + strings.Join(vals, ", "))
	}
}

// equivalenceQueries covers every operator of the executor — filters
// (including expressions the binder must clone correctly), joins, GROUP
// BY/HAVING/aggregates, DISTINCT, ORDER BY both pushed and unpushed — plus
// the shapes that keep an operator on one worker or reach outside the
// operator's input: subqueries, correlated references, aggregate slots,
// sort keys that are not projected, empty inputs, and error cases.
var equivalenceQueries = []string{
	"SELECT * FROM t1 WHERE val < 500.0",
	"SELECT id, val * 2 + 1 FROM t1 WHERE grp % 3 = 1 AND name IS NOT NULL",
	"SELECT name FROM t1 WHERE name LIKE 'a%'",
	"SELECT id FROM t1 WHERE grp IN (1, 2, 3) AND val BETWEEN 100.0 AND 400.0",
	"SELECT UPPER(name), LENGTH(name) FROM t1 WHERE name IS NOT NULL AND grp < 10",
	"SELECT CASE WHEN val < 500.0 THEN 'lo' ELSE 'hi' END, id FROM t1 WHERE grp = 4",
	"SELECT CAST(val AS INT), id FROM t1 WHERE CAST(grp AS TEXT) = '5'",
	"SELECT id + val FROM t1",
	"SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(name) FROM t1 GROUP BY grp HAVING COUNT(*) > 3",
	"SELECT COUNT(DISTINCT grp) FROM t1",
	"SELECT COUNT(*) FROM t1 WHERE val < 250.0",
	"SELECT grp, COUNT(*) FROM t1 WHERE name IS NOT NULL GROUP BY grp ORDER BY grp",
	"SELECT DISTINCT grp FROM t1",
	"SELECT DISTINCT grp, name FROM t1 WHERE val < 700.0",
	"SELECT t1.id, t2.tag FROM t1 JOIN t2 ON t1.grp = t2.grp WHERE t2.id < 40",
	"SELECT COUNT(*) FROM t1 JOIN t2 ON t1.grp = t2.grp",
	"SELECT t1.id, t2.tag FROM t1 LEFT JOIN t2 ON t1.id = t2.id WHERE t1.val < 200.0",
	"SELECT id FROM t1 WHERE grp = 7 ORDER BY id",
	"SELECT id, val FROM t1 WHERE val < 300.0 ORDER BY val DESC LIMIT 7",
	"SELECT grp, val FROM t1 WHERE id IN (SELECT id FROM t2 WHERE tag IS NOT NULL) ORDER BY grp, val LIMIT 25",
	"SELECT val FROM t1 ORDER BY 1 LIMIT 10",
	// Correlated scalar subquery in the select list.
	"SELECT id, (SELECT COUNT(*) FROM t2 WHERE t2.grp = t1.grp) FROM t1 WHERE id < 100",
	// Correlated IN (SELECT ...).
	"SELECT id FROM t1 WHERE id < 400 AND grp IN (SELECT grp FROM t2 WHERE t2.id = t1.id)",
	// Uncorrelated scalar subquery in WHERE.
	"SELECT id, val FROM t1 WHERE grp = 3 AND val > (SELECT AVG(k) * 100.0 FROM small)",
	// HAVING on an aggregate that is not selected.
	"SELECT grp FROM t1 GROUP BY grp HAVING AVG(val) > 500.0",
	// ORDER BY a column that is not projected, with and without DISTINCT.
	"SELECT name FROM t1 WHERE grp = 2 ORDER BY val, id",
	"SELECT DISTINCT name FROM t1 WHERE grp = 2 ORDER BY val",
	"SELECT DISTINCT grp FROM t1 ORDER BY id DESC",
	// ORDER BY an aggregate.
	"SELECT grp FROM t1 GROUP BY grp ORDER BY COUNT(*), grp",
	// Aggregates over an empty table, with and without GROUP BY.
	"SELECT COUNT(*), SUM(v) FROM empty",
	"SELECT g, COUNT(*), SUM(v) FROM empty GROUP BY g",
	// Non-equi LEFT JOIN: the nested loop.
	"SELECT small.id, t2.id FROM small LEFT JOIN t2 ON t2.id < small.id - 30 AND t2.grp = small.k",
	// FROM-less SELECT.
	"SELECT 1 + 2, UPPER('x')",
	// Errors: the first one in row order must win on every executor.
	"SELECT id FROM t1 JOIN t2 ON t1.grp = t2.grp WHERE t2.id < 5",
	"SELECT nope FROM empty",
	"SELECT nope FROM t1",
	"SELECT SUM(val, grp) FROM t1",
	"SELECT MAX(*) FROM t1",
	"SELECT SUM(name) FROM t1",
	"SELECT id / (grp - grp) FROM t1",
	"SELECT id FROM t1 WHERE id = (SELECT id FROM t2)",
	"SELECT id FROM t1 ORDER BY 3",
}

// TestParallelSequentialEquivalence runs every query three ways — on a
// one-worker engine, on a four-worker engine with the same data, and on a
// forced seq-scan session of the four-worker engine — and requires identical
// columns, rows, and error text. Run with -race this doubles as the
// data-race check on the morsel workers.
func TestParallelSequentialEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		one, four := newEnginePair(t, seed)
		seq := one.NewSession("root")
		par := four.NewSession("root")
		forced := four.NewSession("root")
		forced.forceSeqScan = true
		for _, q := range equivalenceQueries {
			want, wantErr := seq.Exec(q)
			for _, run := range []struct {
				name string
				s    *Session
			}{{"four-worker", par}, {"forced seq-scan", forced}} {
				got, gotErr := run.s.Exec(q)
				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("seed %d query %q: %s err %v, one-worker err %v", seed, q, run.name, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Fatalf("seed %d query %q: %s columns %v != %v", seed, q, run.name, got.Columns, want.Columns)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("seed %d query %q: %d %s rows != %d one-worker rows", seed, q, len(got.Rows), run.name, len(want.Rows))
				}
			}
		}
	}
}

// TestParallelErrorEquivalence: a predicate that errors mid-scan must report
// the same error at any worker count (the multi-worker scan returns the
// lowest-morsel error, which is the first one in row order).
func TestParallelErrorEquivalence(t *testing.T) {
	one, four := newEnginePair(t, 7)
	q := "SELECT id FROM t1 WHERE val / (id - 10) > 1.0"
	_, wantErr := one.NewSession("root").Exec(q)
	_, gotErr := four.NewSession("root").Exec(q)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("both engines should error: four-worker %v, one-worker %v", gotErr, wantErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error mismatch: four-worker %q, one-worker %q", gotErr, wantErr)
	}
}

// TestParallelExplain checks the planner's gating: a big table renders a
// Parallel Seq Scan with the worker count, while a small table, a
// one-worker engine, and ORDER BY pushdown (ordered index scan) never do.
func TestParallelExplain(t *testing.T) {
	one, four := newEnginePair(t, 3)
	s := four.NewSession("root")
	s.MustExec("CREATE TABLE tiny (id INT PRIMARY KEY, v INT)")
	s.MustExec("INSERT INTO tiny VALUES (1, 10), (2, 20)")

	text := s.MustExec("EXPLAIN SELECT * FROM t1 WHERE val < 10.0").Text()
	if !strings.Contains(text, "Parallel Seq Scan on t1 (workers: 4)") {
		t.Fatalf("big-table scan should be parallel:\n%s", text)
	}
	text = s.MustExec("EXPLAIN SELECT * FROM tiny WHERE v = 10").Text()
	if strings.Contains(text, "Parallel") {
		t.Fatalf("scan under the row threshold should stay sequential:\n%s", text)
	}
	text = s.MustExec("EXPLAIN SELECT id FROM t1 ORDER BY id LIMIT 5").Text()
	if strings.Contains(text, "Parallel") {
		t.Fatalf("ordered (pushed-down) scan must stay sequential:\n%s", text)
	}

	text = one.NewSession("root").MustExec("EXPLAIN SELECT * FROM t1 WHERE val < 10.0").Text()
	if strings.Contains(text, "Parallel") {
		t.Fatalf("one-worker engine should plan sequential scans:\n%s", text)
	}
}

// TestParallelScanCountsVisitedRows: the fused morsel scan counts visible
// rows read, before the filter.
func TestParallelScanCountsVisitedRows(t *testing.T) {
	e := newParallelEngine(t, 11, 4)
	s := e.NewSession("root")
	before := e.ScanRowsVisited()
	s.MustExec("SELECT COUNT(*) FROM t1 WHERE val < 1.0")
	visited := e.ScanRowsVisited() - before
	if visited != 3000 {
		t.Fatalf("parallel scan visited %d rows, want 3000 (all visible rows, pre-filter)", visited)
	}
}
