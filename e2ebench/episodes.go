package main

import (
	"context"
	"time"

	"bridgescope/internal/agent"
	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/task"
)

// episodeRun is the closed loop the two agent workloads share: one client
// runs the workload's tasks in a seeded order, pass after pass, until the
// measuring time is up. Passes are whole, so every per-task count is a mean
// over identical passes and repeats exactly for a seed. In the traced run
// passes alternate untraced and traced, which gives the tracing overhead.
type episodeRun struct {
	cfg config
	res *result
	tr  clientTrace

	// Untraced measured tasks.
	untraced samples
	mem      memDelta
	// Traced measured tasks.
	tracedEpisodeMs []float64
	delta           *engineDelta
	txns            float64
	// Every measured task.
	tasks, tokens, llmCalls, denials float64
}

func newEpisodeRun(cfg config, workload string) *episodeRun {
	return &episodeRun{cfg: cfg, res: newResult(workload), delta: newEngineDelta()}
}

// taskFunc runs task i of the seeded order; measured tasks are recorded,
// warm-up tasks are only checked.
type taskFunc func(i int, traced, measured bool)

// measure runs warmup tasks, then whole passes of n tasks until the
// measuring time is up (in the traced run, at least one pass of each kind).
func (r *episodeRun) measure(n, warmup int, runTask taskFunc) {
	for i := 0; i < warmup; i++ {
		runTask(i, false, false)
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		traced := r.cfg.trace && pass%2 == 1
		before := readMem()
		for i := 0; i < n; i++ {
			runTask(i, traced, true)
		}
		if !traced {
			r.mem.add(before, readMem(), n)
		}
		if time.Since(start).Seconds() >= r.cfg.seconds && (!r.cfg.trace || pass >= 1) {
			return
		}
	}
}

// begin starts a task's trace when the task is traced.
func (r *episodeRun) begin(traced bool) {
	r.tr.cur = nil
	if traced {
		r.tr.cur = newTraceBuf()
	}
}

// episode runs one agent episode under an episode span.
func (r *episodeRun) episode(a *agent.Agent, tm *timedModel, t *task.Task) (*agent.Metrics, int64, error) {
	ep := r.tr.begin("episode", layerAgent, 0)
	tm.parent = ep.id()
	ctx := withParent(context.Background(), ep.id())
	t0 := time.Now()
	met, err := a.Run(ctx, t)
	ns := time.Since(t0).Nanoseconds()
	ep.end(0, 0)
	return met, ns, err
}

// record files a finished episode and reports whether it ran without a Go
// or protocol error (the workload's own output check follows).
func (r *episodeRun) record(measured bool, t *task.Task, met *agent.Metrics, episodeNs, workNs, cpuNs int64, calls []callSample, before, after stats.Snapshot, err error) bool {
	buf := r.tr.cur
	r.tr.cur = nil
	r.res.attempted++
	if err != nil {
		r.res.fail("%s: %v", t.ID, err)
		return false
	}
	for _, c := range calls {
		if c.ProtoErr != "" {
			r.res.fail("%s: protocol error from %s: %s", t.ID, c.Tool, c.ProtoErr)
			return false
		}
	}
	if !measured {
		return true
	}
	r.tasks++
	r.tokens += float64(met.TotalTokens())
	r.llmCalls += float64(met.LLMCalls)
	for _, c := range calls {
		if c.Denial {
			r.denials++
		}
	}
	if buf != nil {
		r.res.traces = append(r.res.traces, buf)
		r.tracedEpisodeMs = append(r.tracedEpisodeMs, float64(episodeNs)/1e6)
		r.delta.add(before, after)
		for _, c := range calls {
			if c.Tool == "begin" {
				r.txns++
			}
		}
		return true
	}
	u := &r.untraced
	u.tasks++
	u.taskMs = append(u.taskMs, float64(episodeNs)/1e6)
	u.workNs += workNs
	u.cpuNs += cpuNs
	u.addCalls(calls)
	return true
}

// finish computes the run's metrics from the untraced measured tasks.
// Throughput and CPU time are over measured tasks (fixture reset, toolkit
// construction and the episode), which leaves out the benchmark's own
// output checks.
func (r *episodeRun) finish(setup setupTimes, liveMB float64) *result {
	m := r.res.metrics
	setup.metrics(m)
	m["live_heap_mb"] = liveMB
	r.untraced.metrics(m)
	m["tokens_per_task"] = ratio(r.tokens, r.tasks)
	m["llm_calls_per_task"] = ratio(r.llmCalls, r.tasks)
	m["ops_failed_ratio"] = ratio(float64(r.res.failed), float64(r.res.attempted))
	if r.cfg.trace {
		m["core.denials_per_task"] = ratio(r.denials, r.tasks)
		spanMetrics(r.res.traces, "episode", m)
		r.delta.metrics(m, r.txns)
		r.mem.metrics(m)
		untraced := quantile(r.untraced.taskMs, 0.5)
		m["trace.overhead_pct"] = ratio(quantile(r.tracedEpisodeMs, 0.5)-untraced, untraced) * 100
		r.res.note("%d traced episodes; tracing overhead compares their median episode time with the untraced ones", len(r.tracedEpisodeMs))
	}
	return r.res
}
