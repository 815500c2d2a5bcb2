package protocol

import (
	"os"
	"testing"

	"ccift/internal/ckpt"
)

// Every test here runs with the frozen views' released slabs poisoned
// (ckpt.PoisonReleasedSlabs): the retained-state suites read the store's
// state objects back and compare them with the retained views, so a store
// that kept a view of what a flush lent it would fail them.
func TestMain(m *testing.M) {
	ckpt.PoisonReleasedSlabs()
	os.Exit(m.Run())
}

// serviceControl processes pending control traffic once, for a caller
// that polls on its own schedule; a finished rank parks in
// ServiceControlUntil instead.
func (l *Layer) serviceControl() { l.enterOp() }

// requestCheckpoint forces the initiator to start a global checkpoint now
// (rank 0 only), wherever a hand-driven layer needs one.
func (l *Layer) requestCheckpoint() {
	if !l.m.initiator {
		panic("protocol: requestCheckpoint on non-initiator rank")
	}
	l.maybeInitiate(true)
}
