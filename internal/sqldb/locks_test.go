package sqldb

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockManagerDisjointTablesOverlap: two DML statements on different
// tables must be able to hold their locks at the same time, and the
// high-water counter must record the overlap.
func TestLockManagerDisjointTablesOverlap(t *testing.T) {
	var lm lockManager
	lm.global.RLock()
	unlockA := lm.lockNamed([]string{"a"})
	unlockB := lm.lockNamed([]string{"b"}) // must not block
	if got := lm.maxWriters.Load(); got < 2 {
		t.Fatalf("maxWriters = %d, want >= 2 while both table locks are held", got)
	}
	unlockB()
	unlockA()
	lm.global.RUnlock()
	if got := lm.tableAcquires.Load(); got != 2 {
		t.Fatalf("tableAcquires = %d, want 2", got)
	}
}

// TestLockManagerSameTableBlocks: a second statement on the same table must
// wait for the first to release.
func TestLockManagerSameTableBlocks(t *testing.T) {
	var lm lockManager
	lm.global.RLock()
	defer lm.global.RUnlock()
	unlock := lm.lockNamed([]string{"a", "b"})
	acquired := make(chan struct{})
	go func() {
		u := lm.lockNamed([]string{"b"})
		u()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("lock on table b acquired while another statement held it")
	case <-time.After(20 * time.Millisecond):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("lock on table b never acquired after release")
	}
}

// TestWriteLockNamesExpandsViewsAndFKs: the lock set must include tables
// behind views referenced by subqueries and the FK neighborhood of the
// target table, in sorted order.
func TestWriteLockNamesExpandsViewsAndFKs(t *testing.T) {
	e := NewEngine("locknames")
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE parent (id INT PRIMARY KEY)")
	s.MustExec("CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES parent)")
	s.MustExec("CREATE TABLE other (id INT PRIMARY KEY)")
	s.MustExec("CREATE VIEW vother AS SELECT id FROM other")

	stmt, err := Parse("UPDATE child SET pid = 1 WHERE id IN (SELECT id FROM vother)")
	if err != nil {
		t.Fatal(err)
	}
	got := e.writeLockNames(stmt)
	want := []string{"child", "other", "parent"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("writeLockNames = %v, want %v", got, want)
	}

	stmt, err = Parse("DELETE FROM parent WHERE id = 9")
	if err != nil {
		t.Fatal(err)
	}
	got = e.writeLockNames(stmt)
	want = []string{"child", "parent"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("writeLockNames(delete parent) = %v, want %v (child FK check reads child)", got, want)
	}
}

// TestDisjointTableWritersDoNotSerialize is the -race stress test: four
// sessions hammer four distinct tables concurrently. Correctness: every
// update lands. Concurrency: the lock manager's high-water mark shows at
// least two writers inside their statements at once, which the old
// engine-wide writeMu made impossible.
func TestDisjointTableWritersDoNotSerialize(t *testing.T) {
	e := NewEngine("disjoint")
	setup := e.NewSession("root")
	const writers = 4
	const updates = 400
	for w := 0; w < writers; w++ {
		setup.MustExec(fmt.Sprintf("CREATE TABLE w%d (id INT PRIMARY KEY, n INT, pad TEXT)", w))
		for i := 0; i < 50; i++ {
			setup.MustExec(fmt.Sprintf("INSERT INTO w%d VALUES (%d, 0, 'xxxxxxxxxxxxxxxx')", w, i))
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < updates; i++ {
				// Unindexed predicate: the statement scans the table, so
				// locks are held long enough to overlap under -race.
				if _, err := s.Exec(fmt.Sprintf("UPDATE w%d SET n = n + 1 WHERE id >= 0", w)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	check := e.NewSession("root")
	for w := 0; w < writers; w++ {
		r := check.MustExec(fmt.Sprintf("SELECT MIN(n), MAX(n) FROM w%d", w))
		if len(r.Rows) != 1 || r.Rows[0][0].I != updates || r.Rows[0][1].I != updates {
			t.Fatalf("table w%d: n = %v, want all %d", w, r.Rows[0], updates)
		}
	}
	if got := e.LockStats().MaxConcurrentWriters; got < 2 {
		t.Fatalf("MaxConcurrentWriters = %d, want >= 2 (disjoint writers must overlap)", got)
	}
}

// benchDisjointWriters measures point-update throughput with four writers on
// four distinct tables under the per-table lock manager.
func benchDisjointWriters(b *testing.B) {
	const writers = 4
	const keys = 8
	e := NewEngine("writerbench")
	setup := e.NewSession("root")
	stmts := make([][]string, writers)
	for w := 0; w < writers; w++ {
		setup.MustExec(fmt.Sprintf("CREATE TABLE w%d (id INT PRIMARY KEY, n INT)", w))
		for i := 0; i < keys; i++ {
			setup.MustExec(fmt.Sprintf("INSERT INTO w%d VALUES (%d, 0)", w, i))
			stmts[w] = append(stmts[w], fmt.Sprintf("UPDATE w%d SET n = n + 1 WHERE id = %d", w, i))
		}
	}
	var widSeq atomic.Int64
	// One goroutine per writer table regardless of GOMAXPROCS.
	b.SetParallelism((writers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		wid := int(widSeq.Add(1)-1) % writers
		qs := stmts[wid]
		s := e.NewSession("root")
		i := 0
		for pb.Next() {
			s.MustExec(qs[i%keys])
			i++
		}
	})
}

func BenchmarkDisjointWritersSharded(b *testing.B) { benchDisjointWriters(b) }
