package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"bridgescope/internal/agent"
	"bridgescope/internal/bench/nl2ml"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
	"bridgescope/internal/mltools"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/task"
)

// runNL2ML runs the 15 NL2ML tasks that train a linear regression (levels
// 1-3) through the BridgeScope toolkit and its proxy, one client, closed
// loop, over one shared 20,000-row housing engine built in set-up. The
// random-forest tasks are left out: their trainer, a stand-in for an
// external ML service, takes seconds per task and would bury the data path.
func runNL2ML(cfg config) (*result, error) {
	r := newEpisodeRun(cfg, "nl2ml_proxy")
	var engine *sqldb.Engine
	setup, err := timeSetups(func(int) error {
		engine = nl2ml.BuildHouseEngine(cfg.seed, nl2ml.FullRows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.res.metrics["nl2ml.build_house_engine_s"] = setup.wallS
	user := nl2ml.SetupUser(engine)

	var tasks []*task.Task
	for _, t := range nl2ml.GenerateTasks() {
		if t.Pipeline.ModelTool == "train_linear_regression" {
			tasks = append(tasks, t)
		}
	}
	models := []llm.Model{llm.NewSim(llm.GPT4o(), cfg.seed), llm.NewSim(llm.Claude4(), cfg.seed)}
	order, _, modelOff := drawPlan(cfg.seed, len(tasks))
	mlTools := mlToolNames()

	runTask := func(i int, traced, measured bool) {
		t := tasks[order[i]]
		r.begin(traced)
		t0, c0 := now(), cpuNow()
		conn := &tracedConn{Conn: core.NewSQLDBConn(engine, user), tr: &r.tr}
		nw := r.tr.begin("core.new", layerCore, 0)
		tk := core.New(conn, core.Policy{})
		nw.end(0, 0)
		mltools.NewServer(cfg.seed).RegisterTools(tk.Registry())
		var trained map[string]any
		wrapHandlers(tk.Registry(), &r.tr, mlTools, func(tool string, out any) {
			if tool == t.Pipeline.ModelTool {
				trained = decodeResult(out)
			}
		})
		client := &timedClient{inner: tk.Client(), tr: &r.tr}
		tm := &timedModel{Model: models[(i+modelOff)%len(models)], tr: &r.tr}
		a := &agent.Agent{Model: tm, Client: client, SystemPrompt: tk.SystemPrompt()}

		var before, after stats.Snapshot
		if traced {
			before = engine.Stats()
		}
		met, epNs, err := r.episode(a, tm, t)
		workNs, cpuNs := now()-t0, cpuNow()-c0
		if traced {
			after = engine.Stats()
		}
		if !r.record(measured, t, met, epNs, workNs, cpuNs, client.calls, before, after, err) {
			return
		}
		if why := checkNL2ML(t, met, trained); why != "" {
			r.res.fail("%s (%s): %s", t.ID, tm.Name(), why)
		}
	}
	r.measure(len(tasks), 3, runTask)
	r.res.note("%d tasks per pass over one %d-row housing engine; models %s and %s alternate", len(tasks), nl2ml.FullRows, models[0].Name(), models[1].Name())
	res := r.finish(setup, liveHeapMB())
	runtime.KeepAlive(engine)
	return res, nil
}

// checkNL2ML returns why the workflow's outcome is wrong, or "" when it is
// right: the workflow completed, the trainer saw every row of the table,
// and a level-3 workflow predicted all ten houses.
func checkNL2ML(t *task.Task, met *agent.Metrics, trained map[string]any) string {
	if !met.Completed || !strings.Contains(met.FinalAnswer, "Workflow completed") {
		return fmt.Sprintf("workflow did not complete (aborted=%v: %s)", met.Aborted, met.AbortReason)
	}
	nTrain, _ := trained["n_train"].(float64)
	nTest, _ := trained["n_test"].(float64)
	if int(nTrain+nTest) != nl2ml.FullRows {
		return fmt.Sprintf("trainer saw n_train+n_test = %v rows, want %d", nTrain+nTest, nl2ml.FullRows)
	}
	if t.Pipeline.Predict {
		_, text, _ := strings.Cut(met.FinalAnswer, "Result:\n")
		var pred struct{ Predictions []float64 }
		if err := json.Unmarshal([]byte(text), &pred); err != nil || len(pred.Predictions) != 10 {
			return fmt.Sprintf("expected 10 predictions in the final answer, got %q", text)
		}
	}
	return ""
}

// decodeResult reads an ML tool's JSON result; ML results are small.
func decodeResult(out any) map[string]any {
	cr, ok := out.(mcp.CallResult)
	if !ok {
		return nil
	}
	var m map[string]any
	if err := json.Unmarshal(cr.Data, &m); err != nil {
		return nil
	}
	return m
}

// mlToolNames lists the tools mltools registers, so their handler spans are
// charged to the mltools layer.
func mlToolNames() map[string]bool {
	reg := mcp.NewRegistry()
	mltools.NewServer(0).RegisterTools(reg)
	out := map[string]bool{}
	for _, n := range reg.Names() {
		out[n] = true
	}
	return out
}
