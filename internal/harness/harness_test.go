package harness

import (
	"strings"
	"testing"

	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

// tinyExperiment is a fast synthetic experiment for exercising the harness
// plumbing without the full Figure-8 sweep.
func tinyExperiment() Experiment {
	prog := func(iters int) engine.Program {
		return func(r *engine.Rank) (any, error) {
			var it int
			var acc float64
			r.Register("it", &it)
			r.Register("acc", &acc)
			for ; it < iters; it++ {
				r.PotentialCheckpoint()
				s := r.AllreduceF64([]float64{float64(r.Rank() + it)}, mpi.SumF64)
				acc += s[0]
			}
			return acc, nil
		}
	}
	return Experiment{
		App:   "laplace", // reuse the laplace verdict (overhead bound)
		Ranks: 2,
		Sizes: []Size{
			{Label: "tiny", Program: prog(6), StateBytes: 64, EveryN: 3},
			{Label: "small", Program: prog(12), StateBytes: 128, EveryN: 4},
		},
	}
}

func TestExperimentRunAllModes(t *testing.T) {
	table, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if len(row.Cells) != len(Modes) {
			t.Fatalf("cells = %d", len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.Seconds <= 0 {
				t.Fatalf("cell %v has non-positive time", c.Mode)
			}
		}
		// Full mode must actually have checkpointed.
		if row.Cells[3].Checkpoints == 0 {
			t.Fatalf("%s: full mode took no checkpoints", row.Size.Label)
		}
		if row.Cells[0].Checkpoints != 0 {
			t.Fatal("unmodified mode took checkpoints")
		}
	}
	if err := table.ChecksumsAgree(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderContainsEverything(t *testing.T) {
	table, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	out := table.Render()
	for _, want := range []string{"tiny", "small", "unmodified", "full ckpt", "64B", "128B"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestChecksumMismatchDetected(t *testing.T) {
	table, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	table.Rows[0].Cells[2].Checksum = "corrupted"
	if err := table.ChecksumsAgree(); err == nil {
		t.Fatal("mismatch not detected")
	}
}

func TestVerdictsRenderAndEvaluate(t *testing.T) {
	table, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	vs := table.Verdicts()
	if len(vs) == 0 {
		t.Fatal("laplace experiment should yield a verdict")
	}
	out := RenderVerdicts(vs)
	if !strings.Contains(out, "Laplace") {
		t.Errorf("verdict text: %s", out)
	}
}

func TestOverheadComputation(t *testing.T) {
	row := Row{Cells: []Cell{
		{Mode: protocol.Unmodified, Seconds: 2},
		{Mode: protocol.PiggybackOnly, Seconds: 2.5},
		{Mode: protocol.NoAppState, Seconds: 3},
		{Mode: protocol.Full, Seconds: 4},
	}}
	if o := row.Overhead(protocol.Full); o != 100 {
		t.Fatalf("full overhead = %v", o)
	}
	if o := row.Overhead(protocol.PiggybackOnly); o != 25 {
		t.Fatalf("pb overhead = %v", o)
	}
}

// TestFig8QuickVerdicts runs the real Figure-8 experiments at the quick
// scale, once per cell, and asserts what is deterministic about them: at
// every size of every chart, the four program versions compute the same
// checksum. The paper's shape claims (Table.Verdicts) compare wall-clock
// times across sizes, which takes repeats and an otherwise idle machine: CI
// evaluates them with `go run ./cmd/fig8 -ranks 4`, which exits 1 on a
// failed verdict.
func TestFig8QuickVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	for _, e := range Experiments(4, Quick) {
		e.Repeats = 1
		// Nothing here reads a clock, so the charts may share the cores.
		t.Run(e.App, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := table.ChecksumsAgree(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
