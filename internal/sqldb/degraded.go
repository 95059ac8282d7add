package sqldb

import (
	"errors"
	"fmt"
)

// ErrDegraded is the sentinel for the engine's read-only degraded state:
// errors.Is(err, ErrDegraded) identifies writes refused because a durability
// I/O failure (WAL write/fsync, checkpoint rotation or snapshot write —
// ENOSPC, EIO, a lying disk) made it impossible to honestly acknowledge
// commits. The condition is retryable from the client's point of view: the
// data already committed is safe, reads keep working, and the write can be
// retried once an operator fixes the disk and reopens the database.
var ErrDegraded = errors.New("engine is in read-only degraded mode after a durability I/O failure")

// DegradedError is the error writes receive while the engine is degraded.
// It wraps the I/O error that triggered degradation and matches ErrDegraded
// via errors.Is.
type DegradedError struct {
	// Op names the subsystem that failed: "wal" or "checkpoint".
	Op string
	// Err is the triggering I/O error.
	Err error
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("engine is read-only (degraded): %s failure: %v; committed data is safe, reads still work — retry writes after the underlying condition is fixed and the database reopened", e.Op, e.Err)
}

// Unwrap exposes the triggering I/O error.
func (e *DegradedError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrDegraded) true for DegradedErrors.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// degrade parks the engine in read-only degraded mode. The first failure
// wins (later ones are usually cascades of the first); the state is sticky
// until the database is closed and reopened — recovery re-verifies the log,
// which a live engine with a misbehaving disk cannot.
//
// It is safe to call from any goroutine with any combination of wal/engine
// locks held: it only touches an atomic.
func (e *Engine) degrade(op string, err error) {
	if e.degradedErr.CompareAndSwap(nil, &DegradedError{Op: op, Err: err}) {
		e.metrics.degradedTransitions.Add(1)
	}
}

// checkWritable is the write-path gate: every statement that would mutate
// engine state calls it before doing any memory work, so a degraded engine
// refuses writes cleanly instead of mutating the heap and then failing the
// durability wait.
func (e *Engine) checkWritable() error {
	if de := e.degradedErr.Load(); de != nil {
		return de
	}
	return nil
}

// noteCkptErr records the outcome of the most recent checkpoint attempt
// (nil clears it): background checkpoints have no caller to hand the error
// to, so it is parked here and surfaced via Health / sqlshell \checkpoint.
func (e *Engine) noteCkptErr(err error) {
	if err == nil {
		e.ckptErr.Store(nil)
		return
	}
	e.ckptErr.Store(&err)
}

// HealthStatus is the engine's durability health, surfaced through
// Engine.Health and the sqlshell \wal and \checkpoint commands.
type HealthStatus struct {
	// Degraded is true once a durability I/O failure parked the engine in
	// read-only mode.
	Degraded bool
	// DegradedBy names the failed subsystem ("wal", "checkpoint") when
	// Degraded.
	DegradedBy string
	// DegradedErr is the triggering I/O error's message when Degraded.
	DegradedErr string
	// Reason is a one-line human-readable account of the degradation —
	// subsystem plus triggering error plus the operator action — "" while
	// healthy. Shown by sqlshell \wal and the HTTP stats endpoint.
	Reason string
	// LastCheckpointErr is the most recent checkpoint failure ("" after a
	// success): background checkpoints would otherwise fail invisibly.
	LastCheckpointErr string
}

// Health reports the engine's durability health. In-memory engines are
// always healthy (they promise no durability to lose).
func (e *Engine) Health() HealthStatus {
	var h HealthStatus
	if de := e.degradedErr.Load(); de != nil {
		h.Degraded = true
		h.DegradedBy = de.Op
		h.DegradedErr = de.Err.Error()
		h.Reason = fmt.Sprintf("read-only: %s failure (%v); committed data is safe, reads still work — fix the disk and reopen the database", de.Op, de.Err)
	}
	if p := e.ckptErr.Load(); p != nil {
		h.LastCheckpointErr = (*p).Error()
	}
	return h
}
