package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bridgescope/internal/core"
	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

// The fleet_rw traffic: clients closed-loop sessions over a seeded account
// table, readShare of tasks a select (half point lookups, half rangeRows-row
// range aggregates), the rest transfer transactions on a hot set. The
// literal-varying SQL keeps the working set far above the 256-entry plan
// cache. clients is fixed rather than taken from the machine so the
// workload is the same everywhere; it matches the two-CPU reference box.
const (
	fleetAccounts = 10_000
	fleetHot      = 200
	fleetClients  = 2
	readShare     = 0.7
	rangeRows     = 100
	fleetUser     = "teller"
	// fleetWarmup runs traffic before measuring so the WAL, checkpointer
	// and heap reach their steady state.
	fleetWarmup = time.Second
	// traceBlock is the length of the alternating untraced and traced
	// blocks of the traced run.
	traceBlock = 500 * time.Millisecond
	// maxAttempts bounds the retries of one transfer after conflicts.
	maxAttempts = 50
)

type transfer struct{ id, src, dst, amount int64 }

// runFleet runs fleetClients sessions, each with its own toolkit, calling
// tools directly on one durable engine opened with OpenEngine and the
// default sync mode (batch: group commit).
func runFleet(cfg config) (*result, error) {
	res := newResult("fleet_rw")
	var (
		engine  *sqldb.Engine
		dir     string
		initial []int64
	)
	// Each repetition loads its own directory under base. The engines of
	// the earlier repetitions are closed after the timing, so setup_s is
	// the load alone.
	base := filepath.Join(cfg.outDir, fmt.Sprintf("fleet-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var engines []*sqldb.Engine
	setup, err := timeSetups(func(rep int) error {
		dir = filepath.Join(base, strconv.Itoa(rep))
		e, balances, err := fleetLoad(dir, cfg.seed)
		if err != nil {
			return err
		}
		engines, initial = append(engines, e), balances
		return nil
	})
	if err != nil {
		for _, e := range engines {
			e.Close()
		}
		return nil, err
	}
	engine = engines[len(engines)-1]
	for _, e := range engines[:len(engines)-1] {
		if err := e.Close(); err != nil {
			engine.Close()
			return nil, err
		}
	}
	res.note("durable engine in %s: SyncMode %s (group commit), background checkpoint every 1s once the WAL exceeds 4 MiB", dir, sqldb.SyncBatch)

	hot := hotSet(cfg.seed)
	clients := make([]*fleetClient, fleetClients)
	for i := range clients {
		c := &fleetClient{id: i, hot: hot, rng: rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))}
		c.conn = &tracedConn{Conn: core.NewSQLDBConn(engine, fleetUser), tr: &c.tr}
		tk := core.New(c.conn, core.Policy{})
		wrapHandlers(tk.Registry(), &c.tr, nil, nil)
		c.client = &timedClient{inner: tk.Client(), tr: &c.tr}
		clients[i] = c
	}

	mc := &memClock{block: -1}
	// runPhase runs every client until the deadline and waits for them;
	// tasks started before measureStart are not measured.
	runPhase := func(measureStart, deadline time.Time) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.loop(cfg.trace, measureStart, deadline, mc)
			}()
		}
		wg.Wait()
	}
	warmEnd := time.Now().Add(fleetWarmup)
	runPhase(warmEnd, warmEnd)
	// The heap is read after the warm-up rather than at run end: by then the
	// caches are full, while the ledger keeps growing with throughput, which
	// tasks_per_s already reports.
	live := liveHeapMB()

	measureStart := time.Now()
	deadline := measureStart.Add(time.Duration(cfg.seconds * float64(time.Second)))
	before, c0 := engine.Stats(), cpuNow()
	runPhase(measureStart, deadline)
	// Throughput and CPU time are over the time until the last client
	// finished its last measured task.
	untraced := samples{workNs: time.Since(measureStart).Nanoseconds(), cpuNs: cpuNow() - c0}
	after := engine.Stats()

	var tracedTaskMs []float64
	var acked []transfer
	var txns float64
	for _, c := range clients {
		untraced.merge(&c.untraced)
		tracedTaskMs = append(tracedTaskMs, c.tracedTaskMs...)
		acked = append(acked, c.acked...)
		txns += c.txns
		res.traces = append(res.traces, c.traces...)
		res.attempted += c.attempted
		for _, f := range c.failures {
			res.fail("%s", f)
		}
	}

	// Correctness, then durability: close, reopen, check again.
	res.attempted += 2
	for _, f := range fleetCheck(engine, initial, acked) {
		res.fail("live engine: %s", f)
	}
	if err := engine.Close(); err != nil {
		res.fail("close: %v", err)
	} else if reopened, err := sqldb.OpenEngine(dir, sqldb.Options{}); err != nil {
		res.fail("reopen: %v", err)
	} else {
		for _, f := range fleetCheck(reopened, initial, acked) {
			res.fail("after reopen: %s", f)
		}
		if err := reopened.Close(); err != nil {
			res.fail("close after reopen: %v", err)
		}
	}
	res.note("%d acknowledged transfers checked on the live engine and after close and reopen", len(acked))

	m := res.metrics
	setup.metrics(m)
	m["live_heap_mb"] = live
	untraced.metrics(m)
	m["ops_failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	if cfg.trace {
		spanMetrics(res.traces, "fleet.task", m)
		d := newEngineDelta()
		d.add(before, after)
		d.metrics(m, txns)
		mc.flush()
		mc.delta.metrics(m)
		p50 := quantile(untraced.taskMs, 0.5)
		m["trace.overhead_pct"] = ratio(quantile(tracedTaskMs, 0.5)-p50, p50) * 100
		res.note("traced run alternates %v untraced and traced blocks; %d traced tasks", traceBlock, len(tracedTaskMs))
	}
	return res, nil
}

// hotSet draws the account indexes (id-1) the transfers move money between.
func hotSet(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(fleetAccounts)[:fleetHot]
}

// fleetLoad creates the durable account and ledger tables in dir and
// returns the engine and every account's initial balance (index = id).
func fleetLoad(dir string, seed int64) (*sqldb.Engine, []int64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	e, err := sqldb.OpenEngine(dir, sqldb.Options{})
	if err != nil {
		return nil, nil, err
	}
	s := e.NewSession("root")
	stmts := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, branch INT, balance INT)",
		"CREATE TABLE ledger (id INT PRIMARY KEY, src INT, dst INT, amount INT)",
	}
	rng := rand.New(rand.NewSource(seed))
	balances := make([]int64, fleetAccounts+1)
	var rows []string
	for id := 1; id <= fleetAccounts; id++ {
		balances[id] = 1000 + rng.Int63n(9000)
		rows = append(rows, fmt.Sprintf("(%d, %d, %d)", id, id%50, balances[id]))
		if len(rows) == 500 || id == fleetAccounts {
			stmts = append(stmts, "INSERT INTO accounts VALUES "+strings.Join(rows, ", "))
			rows = rows[:0]
		}
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			e.Close()
			return nil, nil, fmt.Errorf("loading fleet tables: %w", err)
		}
	}
	g := e.Grants()
	g.Grant(fleetUser, sqldb.ActionSelect, "accounts")
	g.Grant(fleetUser, sqldb.ActionUpdate, "accounts")
	g.Grant(fleetUser, sqldb.ActionSelect, "ledger")
	g.Grant(fleetUser, sqldb.ActionInsert, "ledger")
	return e, balances, nil
}

// fleetClient is one closed-loop session.
type fleetClient struct {
	id     int
	hot    []int
	rng    *rand.Rand
	tr     clientTrace
	conn   *tracedConn
	client *timedClient
	seq    int64

	attempted int
	failures  []string
	acked     []transfer
	txns      float64 // transfer attempts, retries included
	// Untraced measured samples.
	untraced samples
	// Traced measured tasks.
	tracedTaskMs []float64
	traces       []*traceBuf
}

func (c *fleetClient) loop(trace bool, measureStart, deadline time.Time, mc *memClock) {
	ctx := context.Background()
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		measured := !t0.Before(measureStart)
		traced := false
		if measured && trace {
			block := int(t0.Sub(measureStart) / traceBlock)
			traced = block%2 == 1
			mc.tick(block, traced)
		}
		c.tr.cur = nil
		if traced {
			c.tr.cur = newTraceBuf()
		}
		c.client.calls = c.client.calls[:0]
		root := c.tr.begin("fleet.task", layerBench, 0)
		tctx := withParent(ctx, root.id())
		isTxn := c.rng.Float64() >= readShare
		var err error
		if isTxn {
			err = c.transfer(tctx)
		} else {
			err = c.read(tctx)
		}
		root.end(0, 0)
		ns := time.Since(t0).Nanoseconds()

		c.attempted++
		if err != nil {
			c.failures = append(c.failures, err.Error())
		}
		switch {
		case !measured:
		case traced:
			c.traces = append(c.traces, c.tr.cur)
			c.tracedTaskMs = append(c.tracedTaskMs, float64(ns)/1e6)
		default:
			w := &c.untraced
			w.tasks++
			w.taskMs = append(w.taskMs, float64(ns)/1e6)
			if isTxn && err == nil {
				w.txnMs = append(w.txnMs, float64(ns)/1e6)
			}
			w.addCalls(c.client.calls)
		}
		c.tr.cur = nil
	}
}

// read issues one select: a point lookup or a range aggregate, and checks
// the row count it must return.
func (c *fleetClient) read(ctx context.Context) error {
	if c.rng.Intn(2) == 0 {
		id := 1 + c.rng.Intn(fleetAccounts)
		res, err := c.call(ctx, "select", fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", id))
		if err != nil {
			return err
		}
		if !strings.HasSuffix(res.Text, "(1 rows)") {
			return fmt.Errorf("point lookup of account %d returned %q", id, res.Text)
		}
		return nil
	}
	lo := 1 + c.rng.Intn(fleetAccounts-rangeRows+1)
	res, err := c.call(ctx, "select", fmt.Sprintf(
		"SELECT COUNT(*) AS n, SUM(balance) AS total FROM accounts WHERE id BETWEEN %d AND %d", lo, lo+rangeRows-1))
	if err != nil {
		return err
	}
	if lines := strings.Split(res.Text, "\n"); len(lines) < 2 || !strings.HasPrefix(lines[1], fmt.Sprintf("%d | ", rangeRows)) {
		return fmt.Errorf("range aggregate from %d returned %q", lo, res.Text)
	}
	return nil
}

// transfer moves an amount between two hot accounts and records a ledger
// row, retrying the whole transaction after a serialization conflict.
func (c *fleetClient) transfer(ctx context.Context) error {
	c.seq++
	tr := transfer{id: c.seq*fleetClients + int64(c.id) + 1, amount: 1 + c.rng.Int63n(100)}
	i := c.rng.Intn(len(c.hot))
	j := (i + 1 + c.rng.Intn(len(c.hot)-1)) % len(c.hot)
	tr.src, tr.dst = int64(c.hot[i]+1), int64(c.hot[j]+1)
	steps := []struct{ tool, sql, want string }{
		{"begin", "", "BEGIN"},
		{"update", fmt.Sprintf("UPDATE accounts SET balance = balance - %d WHERE id = %d", tr.amount, tr.src), "UPDATE 1"},
		{"update", fmt.Sprintf("UPDATE accounts SET balance = balance + %d WHERE id = %d", tr.amount, tr.dst), "UPDATE 1"},
		{"insert", fmt.Sprintf("INSERT INTO ledger VALUES (%d, %d, %d, %d)", tr.id, tr.src, tr.dst, tr.amount), "INSERT 0 1"},
		{"commit", "", "COMMIT"},
	}
attempt:
	for a := 0; a < maxAttempts; a++ {
		c.txns++
		for _, st := range steps {
			res, err := c.call(ctx, st.tool, st.sql)
			if err != nil {
				if c.conn.InTransaction() {
					if _, rerr := c.call(ctx, "rollback", ""); rerr != nil {
						return fmt.Errorf("transfer %d: %w", tr.id, rerr)
					}
				}
				if isConflict(err.Error()) {
					c.backoff(a)
					continue attempt
				}
				return fmt.Errorf("transfer %d: %w", tr.id, err)
			}
			if res.Text != st.want {
				return fmt.Errorf("transfer %d: %s returned %q, want %q", tr.id, st.tool, res.Text, st.want)
			}
		}
		c.acked = append(c.acked, tr)
		return nil
	}
	return fmt.Errorf("transfer %d: no success in %d attempts", tr.id, maxAttempts)
}

// backoff sleeps before retry a (0-based) with the equal-jitter
// exponential schedule core.RunInTransaction uses: 200µs doubling to a 50ms
// cap, the delay d made uniform in [d, 1.5d). Retrying at once can spin
// against a conflicting transaction that is still waiting for its fsync.
func (c *fleetClient) backoff(a int) {
	d := min(200*time.Microsecond<<min(a, 8), 50*time.Millisecond)
	time.Sleep(d + time.Duration(c.rng.Int63n(int64(d/2))))
}

func isConflict(text string) bool { return strings.Contains(text, "could not serialize access") }

// call invokes a tool and turns a protocol error or a tool error result
// into an error.
func (c *fleetClient) call(ctx context.Context, tool, sql string) (mcp.CallResult, error) {
	var args map[string]any
	if sql != "" {
		args = map[string]any{"sql": sql}
	}
	res, err := c.client.CallTool(ctx, tool, args)
	if err != nil {
		return res, fmt.Errorf("%s: protocol error: %w", tool, err)
	}
	if res.IsErr {
		return res, fmt.Errorf("%s: %s", tool, res.Text)
	}
	return res, nil
}

// fleetCheck verifies the invariants the traffic must keep: every account's
// balance equals its initial balance moved by exactly the acknowledged
// transfers (so the total is conserved), the ledger holds exactly the
// acknowledged transfers, and the engine's internal structures are
// consistent.
func fleetCheck(e *sqldb.Engine, initial []int64, acked []transfer) []string {
	var errs []string
	want := append([]int64(nil), initial...)
	var total int64
	for _, b := range initial {
		total += b
	}
	for _, t := range acked {
		want[t.src] -= t.amount
		want[t.dst] += t.amount
	}
	s := e.NewSession("root")
	r, err := s.Exec("SELECT id, balance FROM accounts")
	if err != nil {
		return []string{err.Error()}
	}
	if len(r.Rows) != fleetAccounts {
		errs = append(errs, fmt.Sprintf("%d accounts, want %d", len(r.Rows), fleetAccounts))
	}
	var got int64
	bad := 0
	for _, row := range r.Rows {
		id, bal := row[0].I, row[1].I
		got += bal
		if id < 1 || id > fleetAccounts || bal != want[id] {
			bad++
		}
	}
	if bad > 0 {
		errs = append(errs, fmt.Sprintf("%d accounts differ from initial balances plus acknowledged transfers", bad))
	}
	if got != total {
		errs = append(errs, fmt.Sprintf("total balance %d, want %d", got, total))
	}
	r, err = s.Exec("SELECT id, src, dst, amount FROM ledger")
	if err != nil {
		return append(errs, err.Error())
	}
	byID := make(map[int64]transfer, len(acked))
	for _, t := range acked {
		byID[t.id] = t
	}
	if len(r.Rows) != len(acked) {
		errs = append(errs, fmt.Sprintf("ledger has %d rows, want %d acknowledged transfers", len(r.Rows), len(acked)))
	}
	for _, row := range r.Rows {
		t, ok := byID[row[0].I]
		if !ok || t.src != row[1].I || t.dst != row[2].I || t.amount != row[3].I {
			errs = append(errs, fmt.Sprintf("ledger row %d does not match an acknowledged transfer", row[0].I))
			break
		}
	}
	for _, err := range e.CheckConsistency() {
		errs = append(errs, "consistency: "+err.Error())
	}
	return errs
}

// memClock charges allocation and GC pauses to the untraced blocks of the
// traced run; the client that first sees a new block samples the runtime.
type memClock struct {
	mu    sync.Mutex
	block int
	tasks int
	last  runtime.MemStats
	delta memDelta
}

func (m *memClock) tick(block int, traced bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if block != m.block {
		m.sample()
		m.block = block
	}
	if !traced {
		m.tasks++
	}
}

func (m *memClock) sample() {
	ms := readMem()
	if m.block%2 == 0 {
		m.delta.add(m.last, ms, m.tasks)
	}
	m.last, m.tasks = ms, 0
}

func (m *memClock) flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sample()
}
