package protocol

import (
	"os"
	"testing"

	"ccift/internal/storage"
)

// Every test here runs with the chunk writers' released buffers poisoned
// (storage.PoisonReleasedChunks): the retained-state suites read the store's
// state objects back and compare them with the retained views, so a store
// that aliased a chunk buffer would fail them.
func TestMain(m *testing.M) {
	storage.PoisonReleasedChunks()
	os.Exit(m.Run())
}
