package precompiler

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPrecompiledExampleInSync regenerates examples/precompiled/main.go
// from its plain input and compares against the committed file, so the
// repository's demonstration of the precompiler can never drift from the
// transformer's actual output.
func TestPrecompiledExampleInSync(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "precompiled")
	src, err := os.ReadFile(filepath.Join(dir, "main.go.in"))
	if err != nil {
		t.Skipf("example input unavailable: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "main.go"))
	if err != nil {
		t.Fatalf("committed output missing: %v", err)
	}
	got, err := transformFile("main.go.in", src)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("examples/precompiled/main.go is stale; regenerate with:\n" +
			"  go run ./cmd/ccift -o examples/precompiled/main.go examples/precompiled/main.go.in")
	}
}
