package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "full_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_MBps", Unit: "MB/s", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "protocol.ckpts_committed", Unit: "count", Count: true}
	layer := metricDef{Name: "mpi.send_busy_ms", Unit: "ms", Better: "lower"}
	tight := metric{Value: 1, Q1: 0.98, Q3: 1.02}
	wide := metric{Value: 1, Q1: 0.9, Q3: 1.05}
	at := func(v float64) metric { return metric{Value: v, Q1: v, Q3: v} }
	cases := []struct {
		name       string
		d          metricDef
		a, b       metric
		comparable bool
		want       string
	}{
		{"inside the bound", lower, tight, at(1.08), true, vWithin},
		{"slower by more than the bound", lower, tight, at(1.12), true, vRegression},
		{"faster by more than the bound", lower, tight, at(0.85), true, vImproved},
		{"higher is better: a drop regresses", higher, tight, at(0.85), true, vRegression},
		{"higher is better: a rise improves", higher, tight, at(1.2), true, vImproved},
		{"A's own repetitions spread wider than the bound", lower, wide, at(1.5), true, vUnresolved},
		{"different environment or work", lower, tight, at(1.0), false, vNotComparable},
		{"count repeats", count, at(3), at(3), true, vSame},
		{"count differs", count, at(3), at(2), true, vChanged},
		{"layer metric has no bound", layer, tight, at(3), true, vInfo},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b, c.comparable); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if rel, _ := judge(lower, tight, at(1.12), true); !near(rel, 0.12) {
		t.Errorf("relative change = %v, want 0.12", rel)
	}
}

func TestComparability(t *testing.T) {
	env := environment{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", ScratchFS: "ext4"}
	other := env
	other.ScratchFS = "tmpfs"
	if d := envDiff(env, env); len(d) != 0 {
		t.Errorf("identical environments differ: %v", d)
	}
	if d := envDiff(env, other); len(d) != 1 {
		t.Errorf("tmpfs vs ext4: %v, want one difference", d)
	}
	run := func(ckpts float64, failed int) *result {
		return &result{Workload: "w", Trace: true, Failed: failed,
			Params:  map[string]any{"iters": 10, "every_n": 3, "expected_ckpts": 3, "faulted_iters": 5, "kills": 1, "size": 4},
			Metrics: map[string]metric{"protocol.ckpts_committed": {Value: ckpts}, "mpi.sends": {Value: 5}}}
	}
	if !sameWork(run(3, 0), run(3, 0)) {
		t.Error("identical runs did different work")
	}
	if sameWork(run(3, 0), run(2, 0)) {
		t.Error("runs with different committed checkpoint counts are comparable")
	}
	if sameWork(run(3, 0), run(3, 1)) {
		t.Error("a run with a failed operation is comparable")
	}
	rows, notes := compareSets(resultSet{Env: env, Runs: []*result{run(3, 0)}}, resultSet{Env: other, Runs: []*result{run(3, 0)}})
	if len(notes) == 0 || len(rows) == 0 {
		t.Fatalf("rows %d notes %d", len(rows), len(notes))
	}
	for _, r := range rows {
		if r.Verdict != vNotComparable {
			t.Errorf("%s: %q across environments, want %q", r.Metric, r.Verdict, vNotComparable)
		}
	}
}

// BENCHMARK.json at the repository root and the tables in metrics.go and
// workloads.go describe the same benchmark.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSecs {
		t.Errorf("run_seconds %d, the binary's default is %d", bj.RunSeconds, defaultSecs)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q vs %q", i, bj.Workloads[i].Name, w.Name)
		}
		if len(bj.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(bj.Workloads[i].Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, metrics.go %d + %d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, metrics.go says %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if g := bj.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, metrics.go says %+v", i, g, d)
		}
	}
}
