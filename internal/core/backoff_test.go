package core

import (
	"errors"
	"testing"
	"time"
)

// backoffConn is a minimal fake Conn whose transactions fail with a
// serialization error a configurable number of times before succeeding. It
// counts attempts so the retry loop's behavior is observable without a real
// engine.
type backoffConn struct {
	failures int // how many attempts should fail before success
	attempts int // Begin calls observed
}

var errFakeSerialization = errors.New("fake serialization failure")

func (c *backoffConn) User() string { return "fake" }
func (c *backoffConn) Exec(string) (*Result, error) {
	return nil, errors.New("not implemented")
}
func (c *backoffConn) Begin() error {
	c.attempts++
	return nil
}
func (c *backoffConn) Commit() error {
	if c.attempts <= c.failures {
		return errFakeSerialization
	}
	return nil
}
func (c *backoffConn) Rollback() error     { return nil }
func (c *backoffConn) InTransaction() bool { return false }
func (c *backoffConn) ListObjects() []ObjectInfo {
	return nil
}
func (c *backoffConn) ObjectDDL(string) (string, error) { return "", nil }
func (c *backoffConn) Columns(string) ([]string, error) { return nil, nil }
func (c *backoffConn) ColumnValues(string, string, int) ([]string, error) {
	return nil, nil
}
func (c *backoffConn) HasPrivilege(string, string) bool { return true }
func (c *backoffConn) ObjectActions(string) []string    { return nil }
func (c *backoffConn) ClassifySQL(string) (string, []string, error) {
	return "", nil, nil
}
func (c *backoffConn) Explain(string) (string, error) { return "", nil }
func (c *backoffConn) IsSerializationFailure(err error) bool {
	return errors.Is(err, errFakeSerialization)
}

// TestBackoffDelaysGrowMonotonically exhausts every retry and checks the
// recorded sleeps: one per retry (none after the final failure), each
// strictly longer than the last while below the cap.
func TestBackoffDelaysGrowMonotonically(t *testing.T) {
	conn := &backoffConn{failures: 1 << 30} // never succeeds
	var sleeps []time.Duration
	bo := RetryBackoff{
		Base:   time.Millisecond,
		Cap:    time.Hour, // never reached within 6 retries
		Sleep:  func(d time.Duration) { sleeps = append(sleeps, d) },
		Jitter: func(n int64) int64 { return n / 2 }, // deterministic mid-jitter
	}
	const maxRetries = 6
	err := RunInTransactionBackoff(conn, maxRetries, bo, func(Conn) error { return nil })
	if err == nil {
		t.Fatal("expected error after exhausting retries")
	}
	if !errors.Is(err, errFakeSerialization) {
		t.Fatalf("error should wrap the serialization failure, got %v", err)
	}
	if got, want := conn.attempts, maxRetries+1; got != want {
		t.Fatalf("attempts = %d, want %d (initial + %d retries)", got, want, maxRetries)
	}
	// No sleep after the final failed attempt.
	if got, want := len(sleeps), maxRetries; got != want {
		t.Fatalf("sleeps = %d, want %d (one per retry, none after the last)", got, want)
	}
	for i := 1; i < len(sleeps); i++ {
		if sleeps[i] <= sleeps[i-1] {
			t.Fatalf("delay %d (%v) not greater than delay %d (%v)", i, sleeps[i], i-1, sleeps[i-1])
		}
	}
	// With jitter(n) = n/2, delay k is base<<k plus a quarter of itself.
	want := time.Millisecond + time.Millisecond/4
	if sleeps[0] != want {
		t.Fatalf("first delay = %v, want %v", sleeps[0], want)
	}
}

// TestBackoffStopsSleepingOnSuccess verifies the loop sleeps only between
// failed attempts and reports success without a trailing delay.
func TestBackoffStopsSleepingOnSuccess(t *testing.T) {
	conn := &backoffConn{failures: 3}
	var sleeps int
	bo := RetryBackoff{
		Base:  time.Millisecond,
		Cap:   time.Second,
		Sleep: func(time.Duration) { sleeps++ },
	}
	if err := RunInTransactionBackoff(conn, 10, bo, func(Conn) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if conn.attempts != 4 {
		t.Fatalf("attempts = %d, want 4 (3 failures + 1 success)", conn.attempts)
	}
	if sleeps != 3 {
		t.Fatalf("sleeps = %d, want 3 (between failed attempts only)", sleeps)
	}
}

// TestBackoffRespectsCap checks the exponential delay stops growing at Cap
// (modulo jitter, which is zeroed here).
func TestBackoffRespectsCap(t *testing.T) {
	conn := &backoffConn{failures: 1 << 30}
	var sleeps []time.Duration
	bo := RetryBackoff{
		Base:   time.Millisecond,
		Cap:    4 * time.Millisecond,
		Sleep:  func(d time.Duration) { sleeps = append(sleeps, d) },
		Jitter: func(int64) int64 { return 0 },
	}
	_ = RunInTransactionBackoff(conn, 5, bo, func(Conn) error { return nil })
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		4 * time.Millisecond,
		4 * time.Millisecond,
	}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v", i, sleeps[i], want[i])
		}
	}
}

// TestBackoffNonRetryableReturnsImmediately: a non-serialization error must
// not trigger retries or sleeps.
func TestBackoffNonRetryableReturnsImmediately(t *testing.T) {
	conn := &backoffConn{}
	var sleeps int
	bo := RetryBackoff{Sleep: func(time.Duration) { sleeps++ }}
	boom := errors.New("boom")
	err := RunInTransactionBackoff(conn, 5, bo, func(Conn) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if conn.attempts != 1 || sleeps != 0 {
		t.Fatalf("attempts = %d sleeps = %d, want 1 and 0", conn.attempts, sleeps)
	}
}
