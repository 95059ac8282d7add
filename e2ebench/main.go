// Command e2ebench is the repository's end-to-end benchmark. It drives the
// BridgeScope toolkit, the agent harness and the SQL engine through their
// public seams, times every layer from outside, and checks every output.
//
//	bash e2ebench/run.sh --workload bird_ext --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones. The
// lines before it are a human-readable report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports with tracing off: the
// ones BENCHMARK.json bounds. The two timings count CPU time, not
// wall-clock time, because on a shared virtual machine the hypervisor's
// steal slows wall-clock figures by up to a factor of three for minutes at
// a time (see README.md). setup_s is the CPU time of the set-up.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_task", "ms"},
	{"live_heap_mb", "MB"},
}

// reportOnly are end-to-end metrics printed by name wherever they apply but
// left out of the JSON line. The wall-clock figures move with the host's
// steal; the transfer latencies exist only on fleet_rw; ops_failed_ratio is
// zero whenever the run is correct; the token and call counts are zero on
// fleet_rw; and on nl2ml_proxy the tool-call figures depend on the seed,
// because the number of cheap inspection calls next to the slow proxy calls
// is a seeded model draw.
var reportOnly = []metricDef{
	{"setup_wall_s", "s"},
	{"tasks_per_s", "1/s"},
	{"episode_ms_p50", "ms"},
	{"episode_ms_p95", "ms"},
	{"calls_per_s", "1/s"},
	{"tool_call_ms_p50", "ms"},
	{"tool_call_ms_p99", "ms"},
	{"txn_ms_p50", "ms"},
	{"txn_ms_p99", "ms"},
	{"tokens_per_task", "tokens"},
	{"llm_calls_per_task", "count"},
	{"ops_failed_ratio", "ratio"},
}

// perLayer are the traced run's metrics. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{"birdext.build_engine_ms", "ms"},
	{"birdext.generate_suite_s", "s"},
	{"nl2ml.build_house_engine_s", "s"},
	{"core.toolkit_new_us", "us"},
	{"core.verify_us_per_call", "us"},
	{"core.handler_self_us_per_call", "us"},
	{"core.conn_exec_us_per_call", "us"},
	{"core.proxy_self_ms_per_task", "ms"},
	{"core.proxy_rows_moved", "rows"},
	{"core.proxy_bytes_moved", "bytes"},
	{"core.denials_per_task", "count"},
	{"core.conn_ambiguous_per_task", "count"},
	{"mcp.envelope_us_per_call", "us"},
	{"mcp.result_bytes_per_call", "bytes"},
	{"sqldb.stmt_us_mean.select", "us"},
	{"sqldb.stmt_us_mean.insert", "us"},
	{"sqldb.stmt_us_mean.update", "us"},
	{"sqldb.stmt_us_mean.delete", "us"},
	{"sqldb.stmt_us_mean.txn", "us"},
	{"sqldb.rows_scanned_per_returned", "ratio"},
	{"sqldb.plan_cache_hit_ratio", "ratio"},
	{"sqldb.lock_wait_us_total", "us"},
	{"sqldb.mvcc_conflicts_per_txn", "ratio"},
	{"sqldb.wal_fsyncs_per_commit", "ratio"},
	{"sqldb.group_commit_batch_mean", "count"},
	{"sqldb.fsync_us_mean", "us"},
	{"sqldb.wal_bytes_per_commit", "bytes"},
	{"sqldb.checkpoint_ms_total", "ms"},
	{"mltools.handler_ms_per_task", "ms"},
	{"llm.decide_us_per_call", "us"},
	{"tokens_per_task", "tokens"},
	{"llm_calls_per_task", "count"},
	{"agent.self_us_per_task", "us"},
	{"runtime.alloc_mb_per_task", "MB"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"selftime.agent_ms_per_task", "ms"},
	{"selftime.llm_ms_per_task", "ms"},
	{"selftime.mcp_ms_per_task", "ms"},
	{"selftime.core_ms_per_task", "ms"},
	{"selftime.sqldb_ms_per_task", "ms"},
	{"selftime.mltools_ms_per_task", "ms"},
	{"selftime.bench_ms_per_task", "ms"},
	{"selftime.overlap_ms_per_task", "ms"},
	{"selftime.root_ms_per_task", "ms"},
	{"trace.spans_per_task", "count"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// setupReps is how many times each workload performs its set-up; setup_s
// is the median.
const setupReps = 5

// result is what one workload run produced.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   map[string]float64
	traces    []*traceBuf
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var traceIDs atomic.Uint64

func newTraceBuf() *traceBuf { return &traceBuf{ID: traceIDs.Add(1)} }

// setupTimes are the medians over a workload's set-up repetitions.
type setupTimes struct{ cpuS, wallS float64 }

func (s setupTimes) metrics(m map[string]float64) {
	m["setup_s"] = s.cpuS
	m["setup_wall_s"] = s.wallS
}

// timeSetups runs fn setupReps times and returns the median CPU and wall
// time in seconds; fn receives the repetition index.
func timeSetups(fn func(rep int) error) (setupTimes, error) {
	var cpu, wall []float64
	for rep := 0; rep < setupReps; rep++ {
		t0, c0 := time.Now(), cpuNow()
		if err := fn(rep); err != nil {
			return setupTimes{}, err
		}
		cpu = append(cpu, float64(cpuNow()-c0)/1e9)
		wall = append(wall, time.Since(t0).Seconds())
	}
	return setupTimes{cpuS: median(cpu), wallS: median(wall)}, nil
}

// workloads lists the workloads with the number of Go processors each runs
// on: as many as the workload keeps busy. bird_ext's one client runs its
// episodes one after another on tables far below the engine's parallel-scan
// threshold; nl2ml_proxy's proxy runs producers concurrently; fleet_rw has
// two clients. A processor with nothing to run fills its idle time with
// garbage-collector marking and scheduler spinning, CPU time that follows
// how idle the machine is rather than the work.
var workloads = []struct {
	name  string
	procs int
	run   func(config) (*result, error)
}{
	{"bird_ext", 1, runBirdExt},
	{"nl2ml_proxy", 2, runNL2ML},
	{"fleet_rw", fleetClients, runFleet},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "bird_ext, nl2ml_proxy, fleet_rw, or all")
	seed := fs.Int64("seed", 1, "seed for task order, role and model assignment, data and key draws")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench-out"), "directory for span files and the fleet_rw data directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}

	var results []*result
	for _, w := range workloads {
		if *workload != "all" && *workload != w.name {
			continue
		}
		runtime.GOMAXPROCS(w.procs)
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 2
		}
		if cfg.trace {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, cfg.seed))
			if err := writeSpans(path, res.traces); err != nil {
				fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
				return 2
			}
			res.note("spans of %d traces written to %s", len(res.traces), path)
		}
		report(stdout, res, cfg)
		results = append(results, res)
	}
	if len(results) == 0 {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *workload)
		return 2
	}
	line, ok := summary(results, cfg)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// report prints every metric of a run by name, with its unit.
func report(w io.Writer, r *result, cfg config) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  trace=%v\n", r.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	defs := append(append([]metricDef{}, endToEnd...), reportOnly...)
	if cfg.trace {
		defs = append(append([]metricDef{}, perLayer...), metricDef{"ops_failed_ratio", "ratio"})
	}
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok || cfg.trace {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if root := r.metrics["selftime.root_ms_per_task"]; cfg.trace && root > 0 {
		var parts []string
		for _, l := range accountedLayers {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*r.metrics["selftime."+l+"_ms_per_task"]/root))
		}
		fmt.Fprintf(w, "   root span time by layer: %s (overlapping producers %.1f%%)\n",
			strings.Join(parts, ", "), 100*r.metrics["selftime.overlap_ms_per_task"]/root)
	}
	fmt.Fprintf(w, "   operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final JSON line; with several workloads the metric
// names are prefixed by the workload.
func summary(results []*result, cfg config) (string, bool) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, d := range defs {
			name := d.Name
			if len(results) > 1 {
				name = r.workload + "." + name
			}
			out.Metrics[name] = jsonMetric{Value: r.metrics[d.Name], Unit: d.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	raw, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}, "error": %q}`, err.Error()), false
	}
	return string(raw), out.Correct
}
