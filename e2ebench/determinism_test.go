package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// deterministicMetrics must repeat exactly for a seed: they count work, not
// time, and every pass of an episode workload is identical.
var deterministicMetrics = []string{
	"tokens_per_task", "llm_calls_per_task", "ops_failed_ratio",
	"core.proxy_rows_moved", "core.denials_per_task", "sqldb.rows_scanned_per_returned",
}

func tracedRun(t *testing.T, run func(config) (*result, error), seed int64) *result {
	t.Helper()
	res, err := run(config{seed: seed, seconds: 0.001, trace: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s seed %d: %d failed operations: %v", res.workload, seed, res.failed, res.failures)
	}
	return res
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, c := tracedRun(t, w.run, 5), tracedRun(t, w.run, 6)
			if !reflect.DeepEqual(keys(a.metrics), keys(c.metrics)) {
				t.Errorf("metric sets differ between seeds:\n%v\n%v", keys(a.metrics), keys(c.metrics))
			}
			if w.name == "fleet_rw" {
				return // its counts follow the clients' timing, not only the seed
			}
			b := tracedRun(t, w.run, 5)
			for _, name := range deterministicMetrics {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s: %v then %v for the same seed", name, a.metrics[name], b.metrics[name])
				}
			}
		})
	}
}

// TestSeedChangesDraws checks that the seed moves the task order, the role
// and model assignment and the fleet's hot keys.
func TestSeedChangesDraws(t *testing.T) {
	o5, r5, m5 := drawPlan(5, 300)
	o6, r6, m6 := drawPlan(6, 300)
	if reflect.DeepEqual(o5, o6) {
		t.Error("task order does not depend on the seed")
	}
	diffOffsets := false
	for s := int64(0); s < 10; s++ {
		_, r, m := drawPlan(s, 300)
		if r != r5 || m != m5 {
			diffOffsets = true
		}
	}
	if !diffOffsets || r6 < 0 || m6 < 0 {
		t.Error("role and model offsets do not depend on the seed")
	}
	if reflect.DeepEqual(hotSet(5), hotSet(6)) {
		t.Error("fleet hot set does not depend on the seed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program emits %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program emits %v", bj.PerLayer, perLayer)
	}
}
