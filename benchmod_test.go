package ccift_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles type-checks the benchmark module. bench/ is a
// module of its own (bench/go.mod), so `go test ./...` here never compiles
// it, yet it reaches into this one (engine.Rank.Layer,
// protocol.Layer.Comm, mpi.World.OpCount, protocol.GatherRecovery, …): a
// rename that breaks the benchmark fails this suite, not only the
// benchmark's own build.
func TestBenchModuleCompiles(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=readonly")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
