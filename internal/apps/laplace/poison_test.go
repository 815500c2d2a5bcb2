package laplace

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ccift/internal/precompiler"
)

// poisonedEnv marks a test binary built from the poisoned generation. (The
// launch suite's workers accept CCIFT_TEST_ variables in their environment.)
const poisonedEnv = "CCIFT_TEST_POISONED_LAPLACE"

// TestPoisonedGenerationRecovers is the liveness analysis' oracle. It
// rebuilds this package's recovery tests and the launch suite, whose
// workers run Laplace as real processes, with laplace.go replaced (go test
// -overlay) by the precompiler's poisoned generation: on the restart path
// every variable the analysis declared dead is filled with NaN before the
// program resumes. A dead variable read before it is rewritten would carry
// the NaN into the checksum; every faulted run must still end
// byte-identical to the fault-free one.
func TestPoisonedGenerationRecovers(t *testing.T) {
	if os.Getenv(poisonedEnv) != "" {
		t.Skip("this binary is the poisoned generation")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to build the poisoned generation with: %v", err)
	}
	src, err := os.ReadFile("laplace.go.in")
	if err != nil {
		t.Fatal(err)
	}
	res, err := precompiler.TransformPoisoned([]precompiler.File{{Name: "laplace.go.in", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dead) == 0 {
		t.Fatal("the analysis declared nothing dead: there is nothing to poison")
	}
	dir := t.TempDir()
	poisoned := filepath.Join(dir, "laplace.go")
	if err := os.WriteFile(poisoned, res.Files[0], 0o644); err != nil {
		t.Fatal(err)
	}
	generated, err := filepath.Abs("laplace.go")
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {generated: poisoned}})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"test", "-count=1", "-overlay", overlayFile, "-run", "Recover|Distributed|Stale"}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command(goTool, append(args, "ccift/internal/apps/laplace", "ccift/internal/launch")...)
	cmd.Env = append(os.Environ(), poisonedEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("the poisoned generation (dead: %v) failed its recovery tests: %v\n%s", res.Dead, err, out)
	}
	t.Logf("poisoned %v:\n%s", res.Dead, out)
}
