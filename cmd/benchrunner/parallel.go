package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bridgescope/internal/core"
	"bridgescope/internal/sqldb"
)

// printParallel measures the PR6 execution work: morsel-driven batched
// operators (seq scan + filter, hash aggregation, hash join) at four workers
// against the same operators at one worker, disjoint-table writer throughput
// and point-writer latency beside a bulk writer under the per-table lock
// manager, and the hot-row conflict bench with exponential-backoff retries.
// Results land in BENCH_PR6.json.
func printParallel() error {
	header("Engine — parallel batched execution + sharded write locks")

	type benchOut struct {
		Name    string  `json:"name"`
		Ops     int     `json:"ops"`
		NsPerOp float64 `json:"ns_per_op"`
	}
	var results []benchOut
	report := func(name string, r testing.BenchmarkResult) float64 {
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		fmt.Printf("%-36s %10d ops %12.0f ns/op\n", name, r.N, ns)
		results = append(results, benchOut{Name: name, Ops: r.N, NsPerOp: ns})
		return ns
	}

	// --- Read side: batched operators at four workers vs one worker. The
	// baseline is the same batched executor, one worker: parallelism is
	// engine-wide, so the engine is reconfigured between the two runs. ---
	const bigRows = 40000
	const workers = 4
	e := sqldb.NewEngine("parallel")
	e.SetParallelism(workers, 1024)
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE big (id INT PRIMARY KEY, grp INT, val REAL)`)
	s.MustExec(`CREATE TABLE dim (id INT PRIMARY KEY, label TEXT)`)
	for i := 0; i < bigRows; i += 500 {
		var b strings.Builder
		b.WriteString("INSERT INTO big VALUES ")
		for j := i; j < i+500; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d.5)", j, j%64, j%10000)
		}
		s.MustExec(b.String())
	}
	var dims []string
	for i := 0; i < 64; i++ {
		dims = append(dims, fmt.Sprintf("(%d, 'g%d')", i, i))
	}
	s.MustExec("INSERT INTO dim VALUES " + strings.Join(dims, ", "))

	benchStmt := func(w int, sql string) testing.BenchmarkResult {
		stmt, err := sqldb.Parse(sql)
		if err != nil {
			panic(err)
		}
		e.SetParallelism(w, 1024)
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ExecStmt(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	const (
		scanQ  = "SELECT COUNT(*) FROM big WHERE val < 2500.0"
		groupQ = "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM big GROUP BY grp"
		joinQ  = "SELECT COUNT(*) FROM big JOIN dim ON big.grp = dim.id WHERE big.val < 5000.0"
	)
	fmt.Println(s.MustExec("EXPLAIN " + scanQ).Text())
	scanPar := report("ParallelSeqScan", benchStmt(workers, scanQ))
	scanSeq := report("SeqScanBaseline", benchStmt(1, scanQ))
	groupPar := report("ParallelGroupBy", benchStmt(workers, groupQ))
	groupSeq := report("GroupByBaseline", benchStmt(1, groupQ))
	joinPar := report("ParallelHashJoin", benchStmt(workers, joinQ))
	joinSeq := report("HashJoinBaseline", benchStmt(1, joinQ))
	fmt.Printf("\nspeedups at %d workers over one worker: seq scan %.2fx, group by %.2fx, hash join %.2fx\n",
		workers, scanSeq/scanPar, groupSeq/groupPar, joinSeq/joinPar)

	// Release the 40k-row read-side engine before the write benches; a live
	// multi-megabyte heap skews whichever bench runs first.
	e, s = nil, nil
	runtime.GC()

	// --- Write side: disjoint-table writers under per-table locks.
	// Each writer cycles over a small set of point updates on its own table,
	// so statements hit the plan cache (which also caches the lock set) and
	// the measurement isolates lock overhead + contention rather than
	// parse/plan cost. Keep the best of three runs to damp GC drift between
	// runs. ---
	const writerTables = 4
	const writerKeys = 8
	runWriters := func() (float64, sqldb.LockStats) {
		runtime.GC()
		we := sqldb.NewEngine("writers")
		ws := we.NewSession("root")
		stmts := make([][]string, writerTables)
		for w := 0; w < writerTables; w++ {
			ws.MustExec(fmt.Sprintf("CREATE TABLE w%d (id INT PRIMARY KEY, n INT)", w))
			for i := 0; i < writerKeys; i++ {
				ws.MustExec(fmt.Sprintf("INSERT INTO w%d VALUES (%d, 0)", w, i))
				stmts[w] = append(stmts[w], fmt.Sprintf("UPDATE w%d SET n = n + 1 WHERE id = %d", w, i))
			}
		}
		var widSeq atomic.Int64
		r := testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(max(1, (writerTables+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
			b.RunParallel(func(pb *testing.PB) {
				wid := int(widSeq.Add(1)-1) % writerTables
				qs := stmts[wid]
				sess := we.NewSession("root")
				i := 0
				for pb.Next() {
					sess.MustExec(qs[i%writerKeys])
					i++
				}
			})
		})
		return float64(r.T.Nanoseconds()) / float64(r.N), we.LockStats()
	}
	shardedNs := 0.0
	var shardedStats sqldb.LockStats
	for round := 0; round < 3; round++ {
		sNs, sStats := runWriters()
		if shardedNs == 0 || sNs < shardedNs {
			shardedNs, shardedStats = sNs, sStats
		}
	}
	fmt.Printf("%-36s %12.0f ns/op (best of 3)\n", "DisjointTableWriters", shardedNs)
	results = append(results, benchOut{Name: "DisjointTableWriters", NsPerOp: shardedNs})

	// --- A point writer sharing the engine with a bulk writer that runs
	// ~50ms full-table UPDATEs on a different table. Per-table locks never
	// lock-stall the point writer, leaving only scheduler preemption; stalls
	// are rare but huge, so the mean and the worst-case stall are the honest
	// metrics (p99 sits below the stall frequency). ---
	type latency struct{ mean, p50, p99, max float64 }
	runMixed := func() latency {
		runtime.GC()
		we := sqldb.NewEngine("mixed")
		ws := we.NewSession("root")
		ws.MustExec("CREATE TABLE bulk (id INT PRIMARY KEY, n INT)")
		for i := 0; i < 20000; i += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO bulk VALUES ")
			for j := i; j < i+500; j++ {
				if j > i {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 0)", j)
			}
			ws.MustExec(sb.String())
		}
		ws.MustExec("CREATE TABLE pt (id INT PRIMARY KEY, n INT)")
		var pointQs []string
		for i := 0; i < writerKeys; i++ {
			ws.MustExec(fmt.Sprintf("INSERT INTO pt VALUES (%d, 0)", i))
			pointQs = append(pointQs, fmt.Sprintf("UPDATE pt SET n = n + 1 WHERE id = %d", i))
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		started := make(chan struct{})
		go func() {
			defer close(done)
			bulk := we.NewSession("root")
			close(started)
			for {
				select {
				case <-stop:
					return
				default:
					bulk.MustExec("UPDATE bulk SET n = n + 1 WHERE id >= 0")
				}
			}
		}()
		<-started
		// Let the bulk writer get into its first statement before measuring.
		time.Sleep(100 * time.Millisecond)
		// Fixed wall time covering many ~50ms bulk statements; ops completed
		// in the window is the throughput number.
		const window = 2500 * time.Millisecond
		durs := make([]time.Duration, 0, 1<<20)
		sess := we.NewSession("root")
		start := time.Now()
		for i := 0; time.Since(start) < window; i++ {
			t0 := time.Now()
			sess.MustExec(pointQs[i%writerKeys])
			durs = append(durs, time.Since(t0))
		}
		close(stop)
		<-done
		ops := len(durs)
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		var sum time.Duration
		for _, d := range durs {
			sum += d
		}
		return latency{
			mean: float64(sum.Nanoseconds()) / float64(ops),
			p50:  float64(durs[ops/2].Nanoseconds()),
			p99:  float64(durs[ops*99/100].Nanoseconds()),
			max:  float64(durs[ops-1].Nanoseconds()),
		}
	}
	mixed := runMixed()
	fmt.Printf("%-36s mean %9.0f ns  p50 %9.0f  p99 %11.0f  max %11.0f\n",
		"PointWriterBesideBulkWriter", mixed.mean, mixed.p50, mixed.p99, mixed.max)
	results = append(results, benchOut{Name: "PointWriterBesideBulkWriter", NsPerOp: mixed.mean})
	fmt.Printf("\nuniform disjoint writers: max %d writers inside statements at once\n",
		shardedStats.MaxConcurrentWriters)

	// --- Conflict storm: hot-row increments through the retry loop, now
	// with exponential backoff + jitter between attempts ---
	runtime.GC()
	ec := sqldb.NewEngine("conflict")
	sc := ec.NewSession("root")
	sc.MustExec(`CREATE TABLE c (id INT PRIMARY KEY, n INT)`)
	sc.MustExec(`INSERT INTO c VALUES (1, 0)`)
	var attempts atomic.Int64
	var conflictsBefore int64
	conflictNs := report("ConflictRetryIncrement", testing.Benchmark(func(b *testing.B) {
		// testing.Benchmark re-runs this closure while calibrating b.N; reset
		// the counters so the report reflects only the final measured run.
		attempts.Store(0)
		conflictsBefore = ec.WriteConflicts()
		b.SetParallelism(max(1, (4+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
		b.RunParallel(func(pb *testing.PB) {
			conn := core.NewSQLDBConn(ec, "root")
			for pb.Next() {
				err := core.RunInTransaction(conn, 100, func(c core.Conn) error {
					attempts.Add(1)
					_, err := c.Exec("UPDATE c SET n = n + 1 WHERE id = 1")
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}))
	conflicts := ec.WriteConflicts() - conflictsBefore
	rate := 0.0
	if a := attempts.Load(); a > 0 {
		rate = float64(conflicts) / float64(a)
	}
	fmt.Printf("\nconflict bench with backoff: %d attempts, %d conflicts (%.1f%% of attempts, %.0f ns per committed increment) — PR5 recorded 339677 attempts at 61%% without backoff\n",
		attempts.Load(), conflicts, rate*100, conflictNs)

	out := struct {
		Experiment           string     `json:"experiment"`
		BigTableRows         int        `json:"big_table_rows"`
		Workers              int        `json:"workers"`
		Benchmarks           []benchOut `json:"benchmarks"`
		SeqScanSpeedup       float64    `json:"seq_scan_speedup"`
		GroupBySpeedup       float64    `json:"group_by_speedup"`
		HashJoinSpeedup      float64    `json:"hash_join_speedup"`
		PointWriterP99       float64    `json:"point_writer_p99_ns"`
		PointWriterMax       float64    `json:"point_writer_max_ns"`
		MaxConcurrentWriters int64      `json:"max_concurrent_writers"`
		ConflictRate         float64    `json:"conflict_rate"`
		Conflicts            int64      `json:"conflicts"`
		ConflictAttempts     int64      `json:"conflict_attempts"`
	}{
		Experiment:           "engine-parallel",
		BigTableRows:         bigRows,
		Workers:              workers,
		Benchmarks:           results,
		SeqScanSpeedup:       scanSeq / scanPar,
		GroupBySpeedup:       groupSeq / groupPar,
		HashJoinSpeedup:      joinSeq / joinPar,
		PointWriterP99:       mixed.p99,
		PointWriterMax:       mixed.max,
		MaxConcurrentWriters: shardedStats.MaxConcurrentWriters,
		ConflictRate:         rate,
		Conflicts:            conflicts,
		ConflictAttempts:     attempts.Load(),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_PR6.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_PR6.json")
	return nil
}
