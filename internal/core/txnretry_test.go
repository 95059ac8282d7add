package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bridgescope/internal/sqldb"
)

func retryEngine(t *testing.T) *sqldb.Engine {
	t.Helper()
	e := sqldb.NewEngine("retry")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE counter (id INT PRIMARY KEY, n INT)`)
	root.MustExec(`INSERT INTO counter VALUES (1, 0)`)
	return e
}

// TestRunInTransactionRetries: concurrent increments through the retry
// helper all land despite write-write conflicts.
func TestRunInTransactionRetries(t *testing.T) {
	e := retryEngine(t)
	const workers = 4
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := NewSQLDBConn(e, "root")
			for i := 0; i < rounds; i++ {
				err := RunInTransaction(conn, 50, func(c Conn) error {
					_, err := c.Exec("UPDATE counter SET n = n + 1 WHERE id = 1")
					return err
				})
				if err != nil {
					errs <- fmt.Errorf("increment: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	res, err := NewSQLDBConn(e, "root").Exec("SELECT n FROM counter WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != workers*rounds {
		t.Fatalf("lost updates: counter = %d, want %d", got, workers*rounds)
	}
}

// TestRunInTransactionCountsRetries: on a real connection every retry the
// backoff loop takes reaches the engine's MVCC retry counter exactly once,
// both when the transaction finally commits and when the retries run out
// (no retry follows the final failed attempt).
func TestRunInTransactionCountsRetries(t *testing.T) {
	e := retryEngine(t)
	noSleep := RetryBackoff{Sleep: func(time.Duration) {}}
	// blocker holds an uncommitted write on the row, so every attempt to
	// update it fails with a write-write conflict until blocker rolls back.
	blocker := NewSQLDBConn(e, "root")
	if err := blocker.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := blocker.Exec("UPDATE counter SET n = 100 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	increment := func(c Conn) error {
		_, err := c.Exec("UPDATE counter SET n = n + 1 WHERE id = 1")
		return err
	}
	conn := NewSQLDBConn(e, "root")

	before := e.Stats().MVCC.Retries
	err := RunInTransactionBackoff(conn, 2, noSleep, increment)
	if !conn.IsSerializationFailure(err) {
		t.Fatalf("want the conflict after exhausting retries, got %v", err)
	}
	if got := e.Stats().MVCC.Retries - before; got != 2 {
		t.Fatalf("exhausted run counted %d retries, want 2", got)
	}

	const conflicts = 3
	attempts := 0
	before = e.Stats().MVCC.Retries
	err = RunInTransactionBackoff(conn, 5, noSleep, func(c Conn) error {
		attempts++
		if attempts == conflicts+1 {
			if err := blocker.Rollback(); err != nil {
				return err
			}
		}
		return increment(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != conflicts+1 {
		t.Fatalf("ran fn %d times, want %d", attempts, conflicts+1)
	}
	if got := e.Stats().MVCC.Retries - before; got != conflicts {
		t.Fatalf("engine counted %d retries, want %d", got, conflicts)
	}
}

// TestRunInTransactionNonRetryableError: ordinary errors surface once, with
// the transaction rolled back.
func TestRunInTransactionNonRetryableError(t *testing.T) {
	e := retryEngine(t)
	conn := NewSQLDBConn(e, "root")
	calls := 0
	err := RunInTransaction(conn, 3, func(c Conn) error {
		calls++
		_, err := c.Exec("INSERT INTO counter VALUES (1, 9)") // duplicate PK
		return err
	})
	if err == nil || conn.IsSerializationFailure(err) {
		t.Fatalf("want plain duplicate-key error, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("non-retryable error ran fn %d times, want 1", calls)
	}
	if conn.InTransaction() {
		t.Fatal("transaction left open after failure")
	}
}

// TestIsSerializationFailure: the Conn-level classifier recognizes engine
// conflicts and nothing else.
func TestIsSerializationFailure(t *testing.T) {
	e := retryEngine(t)
	c1 := NewSQLDBConn(e, "root")
	c2 := NewSQLDBConn(e, "root")
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("UPDATE counter SET n = 5 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	_, err := c2.Exec("UPDATE counter SET n = 6 WHERE id = 1")
	if !c2.IsSerializationFailure(err) {
		t.Fatalf("conflict not classified as serialization failure: %v", err)
	}
	if c2.IsSerializationFailure(fmt.Errorf("boring")) {
		t.Fatal("classified arbitrary error as serialization failure")
	}
	_ = c2.Rollback()
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginIsolation: the adapter-level isolation entry point reaches the
// engine's READ COMMITTED mode.
func TestBeginIsolation(t *testing.T) {
	e := retryEngine(t)
	rc := NewSQLDBConn(e, "root")
	writer := NewSQLDBConn(e, "root")
	if err := rc.BeginIsolation("READ COMMITTED"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec("UPDATE counter SET n = 77 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := rc.Exec("SELECT n FROM counter WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 77 {
		t.Fatalf("READ COMMITTED transaction did not see the commit: %d", got)
	}
	_ = rc.Rollback()
	if err := rc.BeginIsolation("BOGUS LEVEL"); err == nil {
		t.Fatal("want error for unknown isolation level")
	}
}
