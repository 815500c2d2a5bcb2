package engine

import (
	"os"
	"testing"

	"ccift/internal/ckpt"
	"ccift/internal/protocol"
)

// Every test here runs with the frozen views' released slabs poisoned
// (ckpt.PoisonReleasedSlabs), over every store the suites use — the
// simulated store, Memory and the wrappers the tests put around them — so a
// store that kept a view of a chunk instead of copying it fails the next
// read that verifies the chunk: a replacement's restore, or the Debug
// cross-check of a survivor's retained view against the store.
//
// CCIFT_FREEZE_CROSSCHECK=1 (CI's soak step) also verifies every
// incremental freeze against the live state, Debug or not: a test program
// that writes registered state without Touch fails there by name.
func TestMain(m *testing.M) {
	ckpt.PoisonReleasedSlabs()
	if os.Getenv("CCIFT_FREEZE_CROSSCHECK") == "1" {
		protocol.VerifyEveryFreeze()
	}
	os.Exit(m.Run())
}
