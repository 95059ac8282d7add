package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"bridgescope/internal/agent"
	"bridgescope/internal/bench/birdext"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/task"
)

// runBirdExt runs all 300 BIRD-Ext tasks through the BridgeScope toolkit,
// one client, closed loop, each on a fresh fixture as the paper's
// experiments do. Roles cycle admin/normal/irrelevant and the two simulated
// models alternate along the seeded task order.
func runBirdExt(cfg config) (*result, error) {
	r := newEpisodeRun(cfg, "bird_ext")
	var suite *birdext.Suite
	setup, err := timeSetups(func(rep int) error {
		// GenerateSuite caches per seed, so each repetition uses its own.
		s := birdext.GenerateSuite(cfg.seed + int64(rep)*1_000_003)
		if rep == 0 {
			suite = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.res.metrics["birdext.generate_suite_s"] = setup.wallS
	chk := newBirdChecker(suite)

	models := []llm.Model{llm.NewSim(llm.GPT4o(), cfg.seed), llm.NewSim(llm.Claude4(), cfg.seed)}
	order, roleOff, modelOff := drawPlan(cfg.seed, len(suite.Tasks))

	runTask := func(i int, traced, measured bool) {
		t := suite.Tasks[order[i]]
		role := birdext.Roles[(i+roleOff)%len(birdext.Roles)]
		r.begin(traced)
		t0, c0 := now(), cpuNow()
		fx := r.tr.begin("birdext.build_engine", layerBench, 0)
		engine := suite.BuildEngine()
		user := birdext.SetupRole(engine, role)
		fx.end(0, 0)
		conn := &tracedConn{Conn: core.NewSQLDBConn(engine, user), tr: &r.tr}
		nw := r.tr.begin("core.new", layerCore, 0)
		tk := core.New(conn, core.Policy{})
		nw.end(0, 0)
		wrapHandlers(tk.Registry(), &r.tr, nil, nil)
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
		if why := chk.check(engine, t, role, met, client.calls); why != "" {
			r.res.fail("%s (%s, %s): %s", t.ID, role, tm.Name(), why)
		}
	}
	r.measure(len(suite.Tasks), 10, runTask)
	r.res.note("%d tasks per pass, fresh fixture per task; models %s and %s alternate", len(suite.Tasks), models[0].Name(), models[1].Name())
	r.res.note("%d episodes ran non-gold SQL (the simulated models' deliberate misses; not failures)", chk.modelMisses)
	return r.finish(setup, liveHeapMB()), nil
}

// drawPlan draws a workload's task order and the offsets at which the role
// and model cycles start.
func drawPlan(seed int64, tasks int) (order []int, roleOff, modelOff int) {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(tasks), rng.Intn(len(birdext.Roles)), rng.Intn(2)
}

// birdChecker holds the pristine state the checks compare against.
type birdChecker struct {
	pristine    uint64
	modelMisses int
}

func newBirdChecker(suite *birdext.Suite) *birdChecker {
	return &birdChecker{pristine: fingerprint(suite.BuildEngine())}
}

// check returns why the episode's outcome is wrong, or "" when it is right.
//
// The simulated models make the paper's residual SQL mistakes on purpose,
// so a wrong answer from wrong SQL is the model's miss, not a failure of
// the system. What the system must get right: a task the role cannot
// perform leaves the database unchanged; an episode that executed no write
// leaves it unchanged; an episode that applied exactly the gold statements
// produces the expected post-state; and a gold SELECT returns the expected
// answer.
func (c *birdChecker) check(e *sqldb.Engine, t *task.Task, role birdext.Role, met *agent.Metrics, calls []callSample) string {
	if !birdext.Feasible(role, t.Kind.IsWrite()) {
		if fingerprint(e) != c.pristine {
			return "infeasible task changed the database"
		}
		return ""
	}
	if t.Kind.IsWrite() {
		var writes []string
		for _, call := range calls {
			if !call.IsErr && (call.Tool == "insert" || call.Tool == "update" || call.Tool == "delete") {
				writes = append(writes, call.SQL)
			}
		}
		switch {
		case len(writes) == 0:
			if fingerprint(e) != c.pristine {
				return "no write succeeded but the database changed"
			}
		case met.Completed && slices.Equal(writes, t.GoldSQL):
			if got := verifyText(e, t.VerifySQL); got != t.Expected {
				return fmt.Sprintf("gold statements applied but post-state is %q, want %q", got, t.Expected)
			}
		default:
			c.modelMisses++
		}
		return ""
	}
	lastSelect := ""
	for _, call := range calls {
		if !call.IsErr && call.Tool == "select" {
			lastSelect = call.SQL
		}
	}
	if met.Completed && lastSelect == t.GoldSQL[0] {
		if strings.TrimSpace(met.LastQueryResult) != strings.TrimSpace(t.Expected) {
			return "gold SELECT returned a different answer than expected"
		}
		return ""
	}
	c.modelMisses++
	return ""
}

func verifyText(e *sqldb.Engine, sql string) string {
	r, err := e.NewSession("root").Exec(sql)
	if err != nil {
		return "ERROR: " + err.Error()
	}
	return r.Text()
}

// fingerprint hashes every table's rows, order-insensitively.
func fingerprint(e *sqldb.Engine) uint64 {
	s := e.NewSession("root")
	h := fnv.New64a()
	for _, name := range e.TableNames() {
		r, err := s.Exec("SELECT * FROM " + name)
		if err != nil {
			return 0
		}
		var lines []string
		for _, row := range r.Rows {
			lines = append(lines, fmt.Sprint(row))
		}
		sort.Strings(lines)
		fmt.Fprintf(h, "%s\x00%s\x00", name, strings.Join(lines, "\n"))
	}
	return h.Sum64()
}
