// Package core implements BridgeScope, the paper's contribution: a
// fine-grained, security-aware, proxy-enabled database toolkit for LLM
// agents.
//
// The toolkit exposes four tool families over any database that implements
// the Conn interface (paper §2.6, "unified set of database interfaces"):
//
//   - context retrieval: get_schema (adaptive full/hierarchical),
//     get_object, get_value (§2.2);
//   - SQL execution: one tool per action — select, insert, update, delete,
//     create_table, drop_table, alter_table — each enforcing statement-type
//     matching and object-level verification (§2.3);
//   - transaction management: begin, commit, rollback (§2.4);
//   - data transmission: proxy, which routes producer output directly into
//     consumer tools without LLM involvement (§2.5).
package core

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bridgescope/internal/sqldb"
)

// Result is the database-agnostic execution result exchanged with tools.
// Rows hold JSON-ready values (int64/float64/string/bool/nil).
type Result struct {
	Columns  []string `json:"columns,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	Affected int      `json:"affected,omitempty"`
	Message  string   `json:"message,omitempty"`
}

// Text renders the result in the same tabular form the engine uses, which
// is what enters the LLM context.
func (r *Result) Text() string {
	if len(r.Columns) == 0 {
		if r.Message != "" {
			return r.Message
		}
		return fmt.Sprintf("OK, %d row(s) affected", r.Affected)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, " | "))
	sb.WriteString("\n")
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			if v == nil {
				sb.WriteString("NULL")
			} else {
				fmt.Fprintf(&sb, "%v", v)
			}
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "(%d rows)", len(r.Rows))
	return sb.String()
}

// ObjectInfo describes a top-level named object.
type ObjectInfo struct {
	Name string
	Kind string // "table" (views would add "view")
}

// Conn is the unified database interface all BridgeScope tools are built
// on. One Conn represents one authenticated connection: it executes under a
// fixed database user and owns that user's transaction state. Implementing
// Conn for another database system ports the entire toolkit (§2.6).
type Conn interface {
	// User returns the database user this connection authenticates as.
	User() string

	// Exec runs one SQL statement under the connection's user.
	Exec(sql string) (*Result, error)

	// Transaction control.
	Begin() error
	Commit() error
	Rollback() error
	InTransaction() bool

	// Catalog introspection.
	ListObjects() []ObjectInfo
	ObjectDDL(name string) (string, error)
	Columns(name string) ([]string, error)
	ColumnValues(table, column string, limit int) ([]string, error)

	// Privilege introspection for the connection's user.
	HasPrivilege(action, object string) bool
	ObjectActions(object string) []string

	// ClassifySQL parses a statement far enough to report its verb
	// ("SELECT", "INSERT", ...) and the tables it references.
	ClassifySQL(sql string) (verb string, tables []string, err error)

	// Explain returns the backend's chosen execution plan for sql without
	// executing it, one plan operator per line. It enforces the same
	// privileges running the statement would.
	Explain(sql string) (string, error)

	// IsSerializationFailure reports whether an error returned by Exec is a
	// retryable write-write conflict under the backend's snapshot
	// isolation (PostgreSQL SQLSTATE 40001): the caller should ROLLBACK
	// and retry the whole transaction. See RunInTransaction.
	IsSerializationFailure(err error) bool
}

// RetryBackoff configures the delay schedule between serialization-failure
// retries: exponential growth from Base, bounded by Cap, with equal-jitter
// randomization (a delay d becomes uniform in [d, 1.5d)) so colliding
// transactions spread out instead of re-colliding in lockstep. The zero
// value selects the defaults. Sleep and Jitter are test seams; nil means
// time.Sleep and rand.Int63n.
type RetryBackoff struct {
	Base   time.Duration // delay before the first retry (default 200µs)
	Cap    time.Duration // upper bound on the un-jittered delay (default 50ms)
	Sleep  func(time.Duration)
	Jitter func(n int64) int64
}

// DefaultRetryBackoff is the schedule RunInTransaction uses: 200µs doubling
// up to 50ms.
var DefaultRetryBackoff = RetryBackoff{Base: 200 * time.Microsecond, Cap: 50 * time.Millisecond}

// delay computes the jittered sleep before retry number `retry` (0-based).
func (b RetryBackoff) delay(retry int) time.Duration {
	base, cap := b.Base, b.Cap
	if base <= 0 {
		base = DefaultRetryBackoff.Base
	}
	if cap <= 0 {
		cap = DefaultRetryBackoff.Cap
	}
	d := base
	if retry >= 62 {
		d = cap // base<<retry would overflow long before this
	} else if d <<= uint(retry); d <= 0 || d > cap {
		d = cap
	}
	if half := int64(d / 2); half > 0 {
		jitter := b.Jitter
		if jitter == nil {
			jitter = rand.Int63n
		}
		d += time.Duration(jitter(half))
	}
	return d
}

// RetryNoter is an optional Conn extension: backends that track
// client-side transaction retries implement it, and RunInTransaction's
// backoff loop reports each retry through it so retry pressure shows up in
// the backend's metrics.
type RetryNoter interface {
	NoteRetry()
}

// RunInTransaction executes fn inside a transaction on conn, committing on
// success and rolling back on error. Retryable serialization failures
// (write-write conflicts under snapshot isolation) restart fn up to
// maxRetries times with a fresh snapshot — the documented conflict-retry
// contract, packaged so agent toolkits and application code need no
// backend-specific error matching. maxRetries <= 0 means a sensible
// default. Retries back off exponentially with jitter (DefaultRetryBackoff)
// so a storm of conflicting transactions converges instead of thrashing.
func RunInTransaction(conn Conn, maxRetries int, fn func(Conn) error) error {
	return RunInTransactionBackoff(conn, maxRetries, DefaultRetryBackoff, fn)
}

// RunInTransactionBackoff is RunInTransaction with an explicit backoff
// schedule. No sleep happens after the final failed attempt: the error
// returns immediately.
func RunInTransactionBackoff(conn Conn, maxRetries int, backoff RetryBackoff, fn func(Conn) error) error {
	if maxRetries <= 0 {
		maxRetries = 5
	}
	sleep := backoff.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err := conn.Begin(); err != nil {
			return err
		}
		err := fn(conn)
		if err == nil {
			if err = conn.Commit(); err == nil {
				return nil
			}
		}
		_ = conn.Rollback()
		if !conn.IsSerializationFailure(err) {
			return err
		}
		lastErr = err
		if attempt < maxRetries {
			if n, ok := conn.(RetryNoter); ok {
				n.NoteRetry()
			}
			sleep(backoff.delay(attempt))
		}
	}
	return fmt.Errorf("transaction retried %d times without success: %w", maxRetries, lastErr)
}

// SQLDBConn adapts a sqldb session to the Conn interface. It is the
// reference implementation, playing the role of the paper's open-source
// PostgreSQL binding.
type SQLDBConn struct {
	sess *sqldb.Session
}

// NewSQLDBConn opens a connection to engine as user.
func NewSQLDBConn(engine *sqldb.Engine, user string) *SQLDBConn {
	return &SQLDBConn{sess: engine.NewSession(user)}
}

// Session exposes the underlying session (tests and fixtures).
func (c *SQLDBConn) Session() *sqldb.Session { return c.sess }

// User implements Conn.
func (c *SQLDBConn) User() string { return c.sess.User() }

// Exec implements Conn.
func (c *SQLDBConn) Exec(sql string) (*Result, error) {
	r, err := c.sess.Exec(sql)
	if err != nil {
		return nil, err
	}
	return convertResult(r), nil
}

func convertResult(r *sqldb.Result) *Result {
	out := &Result{Columns: r.Columns, Affected: r.Affected, Message: r.Message}
	for _, row := range r.Rows {
		vals := make([]any, len(row))
		for i, v := range row {
			vals[i] = valueToAny(v)
		}
		out.Rows = append(out.Rows, vals)
	}
	return out
}

func valueToAny(v sqldb.Value) any {
	switch v.Kind {
	case sqldb.KindInt:
		return v.I
	case sqldb.KindFloat:
		return v.F
	case sqldb.KindText:
		return v.S
	case sqldb.KindBool:
		return v.B
	}
	return nil
}

// Begin implements Conn.
func (c *SQLDBConn) Begin() error { _, err := c.sess.Exec("BEGIN"); return err }

// BeginIsolation starts a transaction at a named isolation level
// ("READ COMMITTED", "REPEATABLE READ", "SNAPSHOT", "SERIALIZABLE").
func (c *SQLDBConn) BeginIsolation(level string) error {
	if _, ok := sqldb.ParseIsolationLevel(level); !ok {
		return fmt.Errorf("unknown isolation level %q", level)
	}
	_, err := c.sess.Exec("BEGIN ISOLATION LEVEL " + level)
	return err
}

// Commit implements Conn.
func (c *SQLDBConn) Commit() error { _, err := c.sess.Exec("COMMIT"); return err }

// Rollback implements Conn.
func (c *SQLDBConn) Rollback() error { _, err := c.sess.Exec("ROLLBACK"); return err }

// InTransaction implements Conn.
func (c *SQLDBConn) InTransaction() bool { return c.sess.InTransaction() }

// ListObjects implements Conn.
func (c *SQLDBConn) ListObjects() []ObjectInfo {
	e := c.sess.Engine()
	names := e.TableNames()
	out := make([]ObjectInfo, 0, len(names))
	for _, n := range names {
		out = append(out, ObjectInfo{Name: n, Kind: "table"})
	}
	for _, n := range e.ViewNames() {
		out = append(out, ObjectInfo{Name: n, Kind: "view"})
	}
	return out
}

// ObjectDDL implements Conn.
func (c *SQLDBConn) ObjectDDL(name string) (string, error) {
	e := c.sess.Engine()
	if t, ok := e.Table(name); ok {
		return sqldb.SchemaSQL(t), nil
	}
	if v, ok := e.ViewByName(name); ok {
		return sqldb.ViewSQL(v), nil
	}
	return "", &sqldb.NotFoundError{Kind: "table", Name: name}
}

// Columns implements Conn.
func (c *SQLDBConn) Columns(name string) ([]string, error) {
	t, ok := c.sess.Engine().Table(name)
	if !ok {
		return nil, &sqldb.NotFoundError{Kind: "table", Name: name}
	}
	return t.ColumnNames(), nil
}

// ColumnValues implements Conn.
func (c *SQLDBConn) ColumnValues(table, column string, limit int) ([]string, error) {
	vals, err := c.sess.Engine().ColumnValues(table, column, limit)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out, nil
}

// HasPrivilege implements Conn.
func (c *SQLDBConn) HasPrivilege(action, object string) bool {
	a, ok := sqldb.ParseAction(action)
	if !ok {
		return false
	}
	return c.sess.Engine().Grants().Has(c.sess.User(), a, object)
}

// ObjectActions implements Conn.
func (c *SQLDBConn) ObjectActions(object string) []string {
	acts := c.sess.Engine().Grants().ObjectActions(c.sess.User(), object)
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.String()
	}
	return out
}

// ClassifySQL implements Conn.
func (c *SQLDBConn) ClassifySQL(sql string) (string, []string, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return "", nil, err
	}
	verb := ""
	switch stmt.(type) {
	case *sqldb.SelectStmt:
		verb = "SELECT"
	case *sqldb.InsertStmt:
		verb = "INSERT"
	case *sqldb.UpdateStmt:
		verb = "UPDATE"
	case *sqldb.DeleteStmt:
		verb = "DELETE"
	case *sqldb.CreateTableStmt, *sqldb.CreateIndexStmt:
		verb = "CREATE"
	case *sqldb.DropTableStmt:
		verb = "DROP"
	case *sqldb.AlterTableStmt:
		verb = "ALTER"
	case *sqldb.BeginStmt:
		verb = "BEGIN"
	case *sqldb.CommitStmt:
		verb = "COMMIT"
	case *sqldb.RollbackStmt:
		verb = "ROLLBACK"
	case *sqldb.GrantStmt, *sqldb.RevokeStmt:
		verb = "GRANT"
	case *sqldb.ExplainStmt:
		verb = "EXPLAIN"
	default:
		verb = strings.ToUpper(sqldb.StatementVerb(sql))
	}
	return verb, sqldb.ReferencedTables(stmt), nil
}

// Explain implements Conn using the engine's planner.
func (c *SQLDBConn) Explain(sql string) (string, error) {
	plan, err := c.sess.Plan(sql)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// NoteRetry implements RetryNoter: RunInTransaction's backoff loop reports
// each serialization-failure retry into the engine's MVCC counters.
func (c *SQLDBConn) NoteRetry() {
	c.sess.Engine().NoteTxnRetry()
}

// IsSerializationFailure implements Conn.
func (c *SQLDBConn) IsSerializationFailure(err error) bool {
	return sqldb.IsRetryable(err)
}
