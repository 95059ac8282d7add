// Package stats provides the engine's observability primitives: lock-free
// latency histograms, a ring-buffered slow-query log, and the snapshot
// types the engine exposes through Engine.Stats, sqlshell, and HTTP.
//
// The package deliberately has no dependency on the engine — the engine
// imports stats, never the reverse — so the same types serve the SQL
// engine, the CSV backend, and any future wire server.
//
// Recording is designed for hot paths: a Histogram observation is one
// atomic add on a fixed log2 bucket plus one atomic add on the sum; no
// locks, no allocation. A package-level enabled gate (default on) lets
// benchmarks measure the overhead of the instrumentation itself.
package stats

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket 0 holds non-positive
// values, bucket i (1..38) holds [2^(i-1), 2^i), and bucket 39 holds
// everything at or above 2^38 ns (~4.6 minutes) — wide enough for any
// statement latency worth recording.
const histBuckets = 40

// enabled gates all recording. Snapshots still work when disabled; only
// the hot-path Observe calls become cheap no-ops.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether metric recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns metric recording on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Histogram is a lock-free log2-bucketed histogram. The zero value is
// ready to use and safe for concurrent Observe/Snapshot.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64
}

// bucketFor maps a value to its log2 bucket index.
func bucketFor(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v is in [2^(b-1), 2^b)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper is the inclusive upper bound of bucket i in the recorded
// unit (nanoseconds for latencies). Bucket histBuckets-1 is unbounded;
// callers render it as +Inf.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveValue(d.Nanoseconds()) }

// ObserveValue records one raw value (a size, a count, a duration in ns).
func (h *Histogram) ObserveValue(v int64) {
	if !enabled.Load() {
		return
	}
	h.counts[bucketFor(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the current counts. Buckets above the highest non-empty
// one are omitted.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	s := HistogramSnapshot{SumNs: h.sum.Load()}
	high := -1
	for i := range counts {
		counts[i] = h.counts[i].Load()
		s.Count += counts[i]
		if counts[i] > 0 {
			high = i
		}
	}
	for i := 0; i <= high; i++ {
		s.Buckets = append(s.Buckets, BucketCount{UpperNs: bucketUpper(i), Count: counts[i]})
	}
	return s
}

// BucketCount is one histogram bucket in a snapshot. UpperNs is the
// inclusive upper bound; the last bucket of a full histogram is unbounded
// and rendered as +Inf by the Prometheus writer.
type BucketCount struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	SumNs   int64         `json:"sum_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average recorded value, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket where the cumulative
// count first reaches q (0..1) of the total — a log2-resolution estimate.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			return b.UpperNs
		}
	}
	return s.Buckets[len(s.Buckets)-1].UpperNs
}

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	Time       time.Time `json:"time"`
	User       string    `json:"user"`
	SQL        string    `json:"sql"`
	DurationNs int64     `json:"duration_ns"`
	Rows       int       `json:"rows"`
	Retries    int64     `json:"retries"`
	Plan       string    `json:"plan,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of statements that exceeded the
// threshold. Recording takes a short mutex — acceptable because by
// definition only slow statements reach it.
type SlowLog struct {
	thresholdNs atomic.Int64

	mu    sync.Mutex
	ring  []SlowQuery
	next  int   // ring index of the next write
	total int64 // entries ever recorded (≥ len of the ring)
}

// NewSlowLog returns a log holding the last capacity entries, recording
// statements at or above threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	l := &SlowLog{ring: make([]SlowQuery, 0, capacity)}
	l.thresholdNs.Store(threshold.Nanoseconds())
	return l
}

// Threshold returns the current recording threshold.
func (l *SlowLog) Threshold() time.Duration { return time.Duration(l.thresholdNs.Load()) }

// SetThreshold changes the recording threshold. Zero records everything;
// a negative threshold disables the log.
func (l *SlowLog) SetThreshold(d time.Duration) { l.thresholdNs.Store(d.Nanoseconds()) }

// ShouldRecord reports whether a statement of duration d qualifies,
// without taking the lock — the hot-path guard.
func (l *SlowLog) ShouldRecord(d time.Duration) bool {
	t := l.thresholdNs.Load()
	return t >= 0 && d.Nanoseconds() >= t
}

// Record appends one entry, evicting the oldest at capacity.
func (l *SlowLog) Record(q SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, q)
	} else {
		l.ring[l.next] = q
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
}

// Entries returns the retained entries in chronological order.
func (l *SlowLog) Entries() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, len(l.ring))
	if len(l.ring) == cap(l.ring) {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// Total returns how many entries were ever recorded, including evicted.
func (l *SlowLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot is the full engine stats surface: everything the engine can
// report, in one struct, JSON-serializable and renderable as Prometheus
// text exposition.
type Snapshot struct {
	Enabled bool `json:"enabled"`

	// Statements maps statement kind (select, insert, update, delete,
	// ddl, txn, other) to its latency histogram.
	Statements     map[string]HistogramSnapshot `json:"statements"`
	RowsScanned    int64                        `json:"rows_scanned"`
	DMLRowsVisited int64                        `json:"dml_rows_visited"`
	RowsReturned   int64                        `json:"rows_returned"`

	PlanCache  CacheStats      `json:"plan_cache"`
	WAL        WALStats        `json:"wal"`
	MVCC       MVCCStats       `json:"mvcc"`
	Locks      LockStats       `json:"locks"`
	Parallel   ParallelStats   `json:"parallel"`
	Checkpoint CheckpointStats `json:"checkpoint"`
	Health     HealthStats     `json:"health"`
	SlowLog    SlowLogStats    `json:"slow_log"`
}

// CacheStats describes the plan cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
}

// WALStats describes the durability subsystem. The counter fields mirror
// the engine's DurabilityStats; the histograms are new.
type WALStats struct {
	Durable      bool              `json:"durable"`
	Mode         string            `json:"mode,omitempty"`
	Commits      int64             `json:"commits"`
	Records      int64             `json:"records"`
	Fsyncs       int64             `json:"fsyncs"`
	GroupFlushes int64             `json:"group_flushes"`
	WALBytes     int64             `json:"wal_bytes"`
	WALSize      int64             `json:"wal_size"`
	Segment      int64             `json:"segment"`
	LSN          int64             `json:"lsn"`
	Checkpoints  int64             `json:"checkpoints"`
	AppendNs     HistogramSnapshot `json:"append_ns"`
	FsyncNs      HistogramSnapshot `json:"fsync_ns"`
	BatchCommits HistogramSnapshot `json:"batch_commits"`
}

// MVCCStats describes transaction concurrency health.
type MVCCStats struct {
	Conflicts    int64 `json:"conflicts"`
	Aborts       int64 `json:"aborts"`
	Retries      int64 `json:"retries"`
	OpenTxns     int   `json:"open_txns"`
	GCHorizonLag int64 `json:"gc_horizon_lag"`
}

// LockStats describes the per-table lock manager.
type LockStats struct {
	TableAcquires        int64             `json:"table_acquires"`
	GlobalAcquires       int64             `json:"global_acquires"`
	MaxConcurrentWriters int64             `json:"max_concurrent_writers"`
	WaitNs               HistogramSnapshot `json:"wait_ns"`
}

// ParallelStats describes morsel-driven parallel execution.
type ParallelStats struct {
	Batches int64             `json:"batches"`
	Morsels int64             `json:"morsels"`
	Workers HistogramSnapshot `json:"workers"`
}

// CheckpointStats describes snapshot checkpoints.
type CheckpointStats struct {
	Count      int64             `json:"count"`
	DurationNs HistogramSnapshot `json:"duration_ns"`
}

// HealthStats folds degraded-mode state into the snapshot.
type HealthStats struct {
	Degraded          bool   `json:"degraded"`
	Reason            string `json:"reason,omitempty"`
	Transitions       int64  `json:"transitions"`
	LastCheckpointErr string `json:"last_checkpoint_err,omitempty"`
}

// SlowLogStats embeds the slow-query log in the snapshot.
type SlowLogStats struct {
	ThresholdNs int64       `json:"threshold_ns"`
	Total       int64       `json:"total"`
	Entries     []SlowQuery `json:"entries,omitempty"`
}
