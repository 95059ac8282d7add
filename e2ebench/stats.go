package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"

	"bridgescope/internal/sqldb/stats"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineDelta accumulates Engine.Stats() differences over the measured
// work, so fixture building and the benchmark's own checks are excluded.
type engineDelta struct {
	stmtCount, stmtNs         map[string]float64
	rowsScanned, rowsReturned float64
	cacheHits, cacheMisses    float64
	lockWaitNs                float64
	conflicts                 float64
	commits, fsyncs, walBytes float64
	fsyncCount, fsyncNs       float64
	batchCount, batchSum      float64
	checkpointNs              float64
}

func newEngineDelta() *engineDelta {
	return &engineDelta{stmtCount: map[string]float64{}, stmtNs: map[string]float64{}}
}

func (d *engineDelta) add(before, after stats.Snapshot) {
	for kind, h := range after.Statements {
		b := before.Statements[kind]
		d.stmtCount[kind] += float64(h.Count - b.Count)
		d.stmtNs[kind] += float64(h.SumNs - b.SumNs)
	}
	d.rowsScanned += float64(after.RowsScanned - before.RowsScanned)
	d.rowsReturned += float64(after.RowsReturned - before.RowsReturned)
	d.cacheHits += float64(after.PlanCache.Hits - before.PlanCache.Hits)
	d.cacheMisses += float64(after.PlanCache.Misses - before.PlanCache.Misses)
	d.lockWaitNs += float64(after.Locks.WaitNs.SumNs - before.Locks.WaitNs.SumNs)
	d.conflicts += float64(after.MVCC.Conflicts - before.MVCC.Conflicts)
	d.commits += float64(after.WAL.Commits - before.WAL.Commits)
	d.fsyncs += float64(after.WAL.Fsyncs - before.WAL.Fsyncs)
	d.walBytes += float64(after.WAL.WALBytes - before.WAL.WALBytes)
	d.fsyncCount += float64(after.WAL.FsyncNs.Count - before.WAL.FsyncNs.Count)
	d.fsyncNs += float64(after.WAL.FsyncNs.SumNs - before.WAL.FsyncNs.SumNs)
	d.batchCount += float64(after.WAL.BatchCommits.Count - before.WAL.BatchCommits.Count)
	d.batchSum += float64(after.WAL.BatchCommits.SumNs - before.WAL.BatchCommits.SumNs)
	d.checkpointNs += float64(after.Checkpoint.DurationNs.SumNs - before.Checkpoint.DurationNs.SumNs)
}

// metrics reports the sqldb layer; txns is the number of transactions the
// clients opened (the base of the conflict ratio).
func (d *engineDelta) metrics(m map[string]float64, txns float64) {
	for _, kind := range []string{"select", "insert", "update", "delete", "txn"} {
		m["sqldb.stmt_us_mean."+kind] = ratio(d.stmtNs[kind], d.stmtCount[kind]) / 1e3
	}
	m["sqldb.rows_scanned_per_returned"] = ratio(d.rowsScanned, d.rowsReturned)
	m["sqldb.plan_cache_hit_ratio"] = ratio(d.cacheHits, d.cacheHits+d.cacheMisses)
	m["sqldb.lock_wait_us_total"] = d.lockWaitNs / 1e3
	m["sqldb.mvcc_conflicts_per_txn"] = ratio(d.conflicts, txns)
	m["sqldb.wal_fsyncs_per_commit"] = ratio(d.fsyncs, d.commits)
	m["sqldb.group_commit_batch_mean"] = ratio(d.batchSum, d.batchCount)
	m["sqldb.fsync_us_mean"] = ratio(d.fsyncNs, d.fsyncCount) / 1e3
	m["sqldb.wal_bytes_per_commit"] = ratio(d.walBytes, d.commits)
	m["sqldb.checkpoint_ms_total"] = d.checkpointNs / 1e6
}

// memDelta accumulates allocation and GC pause totals over untraced work,
// so the spans the tracer allocates do not count.
type memDelta struct {
	allocBytes, pauseNs float64
	tasks               float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) add(before, after runtime.MemStats, tasks int) {
	d.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	d.pauseNs += float64(after.PauseTotalNs - before.PauseTotalNs)
	d.tasks += float64(tasks)
}

func (d *memDelta) metrics(m map[string]float64) {
	m["runtime.alloc_mb_per_task"] = ratio(d.allocBytes, d.tasks) / (1 << 20)
	m["runtime.gc_pause_ms_total"] = d.pauseNs / 1e6
}

// liveHeapMB forces collections and reports the heap still in use. The
// second collection empties the sync.Pool victim caches the first one
// leaves behind.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	ms := readMem()
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuNow returns the CPU time, user and system, that every thread of the
// process has used. Unlike wall-clock time it leaves out the time the
// hypervisor gives this virtual machine's CPUs to other tenants (steal),
// which on a shared host comes in bursts that slow wall-clock figures by
// up to a factor of three for minutes.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// samples holds the untraced measured work of a run.
type samples struct {
	workNs                int64 // time the tasks took (fleet_rw: the measured wall time)
	cpuNs                 int64 // process CPU time over the same work
	tasks, calls          int
	taskMs, callMs, txnMs []float64
}

func (s *samples) addCalls(calls []callSample) {
	s.calls += len(calls)
	for _, c := range calls {
		s.callMs = append(s.callMs, float64(c.Ns)/1e6)
	}
}

func (s *samples) merge(o *samples) {
	s.workNs += o.workNs
	s.cpuNs += o.cpuNs
	s.tasks += o.tasks
	s.calls += o.calls
	s.taskMs = append(s.taskMs, o.taskMs...)
	s.callMs = append(s.callMs, o.callMs...)
	s.txnMs = append(s.txnMs, o.txnMs...)
}

// metrics reports the end-to-end metrics over every untraced measured task.
func (s *samples) metrics(m map[string]float64) {
	workS := float64(s.workNs) / 1e9
	m["tasks_per_s"] = ratio(float64(s.tasks), workS)
	m["cpu_ms_per_task"] = ratio(float64(s.cpuNs)/1e6, float64(s.tasks))
	m["calls_per_s"] = ratio(float64(s.calls), workS)
	m["episode_ms_p50"] = quantile(s.taskMs, 0.50)
	m["episode_ms_p95"] = quantile(s.taskMs, 0.95)
	m["tool_call_ms_p50"] = quantile(s.callMs, 0.50)
	m["tool_call_ms_p99"] = quantile(s.callMs, 0.99)
	if len(s.txnMs) > 0 {
		m["txn_ms_p50"] = quantile(s.txnMs, 0.50)
		m["txn_ms_p99"] = quantile(s.txnMs, 0.99)
	}
}
