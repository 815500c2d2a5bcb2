package precompiler

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// This file proves the emitted instrumentation pattern end to end: the
// functions below are the precompiler's output for the testdata inputs,
// transcribed into compilable test code (assertTranscribed holds each one
// equal to what Transform emits). pipeline and step place one checkpoint
// site mid-iteration — after a send and a receive — and a second inside a
// callee, so recovery exercises the Position Stack for real: resuming at the
// site must skip the already-executed send (a naive loop-top restart would
// double-send and corrupt the stream) and must rebuild the solver→step
// activation chain. accumulate writes a registered slice in place, which the
// default incremental freeze sees only through the emitted Touch.

func pipeline(r *engine.Rank, iters int) float64 {
	var it int
	var acc float64
	var in []float64
	var next int
	var prev int
	r.Register("pipeline.iters", &iters)
	defer r.Unregister()
	r.Register("pipeline.it", &it)
	defer r.Unregister()
	r.Register("pipeline.acc", &acc)
	defer r.Unregister()
	r.Register("pipeline.in", &in)
	defer r.Unregister()
	r.Register("pipeline.next", &next)
	defer r.Unregister()
	r.Register("pipeline.prev", &prev)
	defer r.Unregister()
	var ccift_target int
	if r.PS().Resuming() {
		ccift_target = r.PS().Resume()
	}
	switch ccift_target {
	case 1, 2:
		goto ccift_c1
	}
	next = (r.Rank() + 1) % r.Size()
	prev = (r.Rank() - 1 + r.Size()) % r.Size()
	acc = float64(r.Rank())
ccift_c1:
	for ; it < iters; it++ {
		switch ccift_target {
		case 1:
			ccift_target = 0
			goto ccift_l1
		case 2:
			ccift_target = 0
			goto ccift_l2
		}
		r.Send(next, 1, mpi.F64Bytes([]float64{acc}))
		in = mpi.BytesF64(r.Recv(prev, 1).Data)
		acc = acc*0.5 + in[0]*0.5
		r.Touch("pipeline.in")
		r.PS().Push(1)
		r.PotentialCheckpoint()
	ccift_l1:
		r.PS().Pop()
		r.Touch("pipeline.in")
		r.PS().Push(2)
	ccift_l2:
		acc = step(r, acc)
		r.PS().Pop()
	}
	return acc
}

func step(r *engine.Rank, x float64) float64 {
	var y float64
	r.Register("step.x", &x)
	defer r.Unregister()
	r.Register("step.y", &y)
	defer r.Unregister()
	var ccift_target int
	if r.PS().Resuming() {
		ccift_target = r.PS().Resume()
	}
	switch ccift_target {
	case 1:
		ccift_target = 0
		goto ccift_l1
	}
	y = x*0.5 + 1
	r.PS().Push(1)
	r.PotentialCheckpoint()
ccift_l1:
	r.PS().Pop()
	return y + 0.25
}

func accumulate(r *engine.Rank, iters int) float64 {
	var it int
	var grid []float64
	r.Register("accumulate.iters", &iters)
	defer r.Unregister()
	r.Register("accumulate.it", &it)
	defer r.Unregister()
	r.Register("accumulate.grid", &grid)
	defer r.Unregister()
	var ccift_target int
	if r.PS().Resuming() {
		ccift_target = r.PS().Resume()
	}
	switch ccift_target {
	case 1:
		goto ccift_c1
	}
	grid = make([]float64, 4)
ccift_c1:
	for ; it < iters; it++ {
		switch ccift_target {
		case 1:
			ccift_target = 0
			goto ccift_l1
		}
		grid[it%4] += float64(r.Rank() + it)
		r.Barrier()
		r.Touch("accumulate.grid")
		r.PS().Push(1)
		r.PotentialCheckpoint()
	ccift_l1:
		r.PS().Pop()
	}
	return grid[0] + grid[1] + grid[2] + grid[3]
}

// funcSources returns the named functions of a Go source, formatted alone
// (no comments, no blank lines the printer would keep).
func funcSources(t *testing.T, name string, src []byte, funcs ...string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			var buf bytes.Buffer
			if err := format.Node(&buf, token.NewFileSet(), &ast.FuncDecl{Name: fd.Name, Type: fd.Type, Body: fd.Body}); err != nil {
				t.Fatal(err)
			}
			out[fd.Name.Name] = string(bytes.ReplaceAll(buf.Bytes(), []byte("\n\n"), []byte("\n")))
		}
	}
	for _, fn := range funcs {
		if out[fn] == "" {
			t.Fatalf("%s declares no function %s", name, fn)
		}
	}
	return out
}

// assertTranscribed fails unless each named function of this file is what
// the precompiler emits for testdata/<input>.input: the recovery tests below
// run the transformer's real output, not a hand-written approximation.
func assertTranscribed(t *testing.T, input string, funcs ...string) {
	t.Helper()
	self, err := os.ReadFile("integration_test.go")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("testdata", input+".input"))
	if err != nil {
		t.Fatal(err)
	}
	emitted, err := transformFile(input+".go", src)
	if err != nil {
		t.Fatal(err)
	}
	have := funcSources(t, "integration_test.go", self, funcs...)
	want := funcSources(t, input+".go", emitted, funcs...)
	for _, fn := range funcs {
		if have[fn] != want[fn] {
			t.Errorf("integration_test.go's %s is not the precompiler's output for testdata/%s.input:\n--- transcribed ---\n%s\n--- emitted ---\n%s", fn, input, have[fn], want[fn])
		}
	}
}

func pipelineProg(iters int) engine.Program {
	return func(r *engine.Rank) (any, error) {
		return pipeline(r, iters), nil
	}
}

// TestInstrumentedPipelineRecovers sweeps stop failures across execution
// points and ranks; every recovery must reproduce the failure-free result
// bit for bit even though checkpoints land mid-iteration and mid-call.
func TestInstrumentedPipelineRecovers(t *testing.T) {
	const iters, ranks = 18, 3
	ref, err := engine.Run(engine.Config{Ranks: ranks, Mode: protocol.Unmodified}, pipelineProg(iters))
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < ranks; rank++ {
		for _, atOp := range []int64{9, 21, 35, 48, 62, 77, 90, 110} {
			cfg := engine.Config{
				Ranks: ranks, Mode: protocol.Full, EveryN: 3, Debug: true,
				Failures: []engine.Failure{{Rank: rank, AtOp: atOp, Incarnation: 0}},
			}
			res, err := engine.Run(cfg, pipelineProg(iters))
			if err != nil {
				t.Fatalf("rank=%d atOp=%d: %v", rank, atOp, err)
			}
			if !reflect.DeepEqual(res.Values, ref.Values) {
				t.Fatalf("rank=%d atOp=%d: values %v != ref %v", rank, atOp, res.Values, ref.Values)
			}
		}
	}
}

// TestInstrumentedPipelineUnderChaos adds cross-sender reordering on top
// of the failure sweep: over a simulated network whose jitter is four
// times its latency a frame can overtake a causally earlier frame from
// another sender. The schedule is a function of the seed, so each run
// names the committed epoch its rollback must restore.
func TestInstrumentedPipelineUnderChaos(t *testing.T) {
	const iters, ranks = 15, 3
	ref, err := engine.Run(engine.Config{Ranks: ranks, Mode: protocol.Unmodified}, pipelineProg(iters))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		seed, atOp int64
		want       int
	}{
		{1, 60, 1}, {2, 60, 1}, {3, 60, 1}, {4, 60, -1},
		{1, 90, 1}, {2, 90, 1}, {3, 90, 1}, {4, 90, 1},
	} {
		s, err := sim.New(ranks, sim.Scenario{Seed: k.seed, Latency: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{
			Ranks: ranks, Mode: protocol.Full, EveryN: 4, Debug: true,
			Failures:     []engine.Failure{{Rank: 1, AtOp: k.atOp}},
			NewTransport: s.NewTransport, Clock: s.DetectorClock(), RankClock: s.RankClock,
			Store: s.WrapStore(storage.NewMemory()),
		}
		res, err := engine.Run(cfg, pipelineProg(iters))
		s.Stop()
		if err != nil {
			t.Fatalf("seed=%d atOp=%d: %v", k.seed, k.atOp, err)
		}
		if !reflect.DeepEqual(res.Values, ref.Values) {
			t.Fatalf("seed=%d atOp=%d: values %v != ref %v", k.seed, k.atOp, res.Values, ref.Values)
		}
		if !reflect.DeepEqual(res.RecoveredEpochs, []int{k.want}) {
			t.Fatalf("seed=%d atOp=%d: recovered from %v, want [%d]", k.seed, k.atOp, res.RecoveredEpochs, k.want)
		}
	}
}

// TestPSDepthBalanced: after a complete run the position stack must be
// empty — every Push paired with a Pop across all resume paths.
func TestPSDepthBalanced(t *testing.T) {
	prog := func(r *engine.Rank) (any, error) {
		v := pipeline(r, 8)
		if d := r.PS().Depth(); d != 0 {
			t.Errorf("rank %d: PS depth %d after completion", r.Rank(), d)
		}
		return v, nil
	}
	cfg := engine.Config{
		Ranks: 2, Mode: protocol.Full, EveryN: 3, Debug: true,
		Failures: []engine.Failure{{Rank: 0, AtOp: 40, Incarnation: 0}},
	}
	if _, err := engine.Run(cfg, prog); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineGoldenMatchesIntegration ties pipeline and step to the
// transformer: the recovery tests above run exactly its output.
func TestPipelineGoldenMatchesIntegration(t *testing.T) {
	assertTranscribed(t, "pipeline", "pipeline", "step")
}

// TestPrecompiledInPlaceWritesRecover: a precompiled program that writes a
// registered slice in place, with Debug off so no verifier stands in for
// the emitted Touch, must recover the fault-free answer under the default
// incremental freeze. Without the Touch the checkpoints after the first
// re-reference the first one's grid, and every recovery below comes back
// with a stale sum.
func TestPrecompiledInPlaceWritesRecover(t *testing.T) {
	assertTranscribed(t, "accumulate", "accumulate")
	const iters, ranks = 200, 2
	prog := func(r *engine.Rank) (any, error) { return accumulate(r, iters), nil }
	ref, err := engine.Run(engine.Config{Ranks: ranks, Mode: protocol.Unmodified}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, atOp := range []int64{150, 250, 350} {
		res, err := engine.Run(engine.Config{
			Ranks: ranks, Mode: protocol.Full, EveryN: 10, Sync: true,
			Failures: []engine.Failure{{Rank: 1, AtOp: atOp}},
		}, prog)
		if err != nil {
			t.Fatalf("atOp=%d: %v", atOp, err)
		}
		if res.Restarts != 1 {
			t.Fatalf("atOp=%d: %d restarts, want the kill to land once", atOp, res.Restarts)
		}
		if !reflect.DeepEqual(res.Values, ref.Values) {
			t.Fatalf("atOp=%d: recovered %v, fault-free %v", atOp, res.Values, ref.Values)
		}
	}
}
