package tcptransport

import (
	"fmt"

	"ccift/internal/cerr"
)

// StaticRendezvous builds Publish/Lookup over an address table the caller
// owns: every listener is bound before any transport starts, so publish has
// nothing to do and lookup never waits. The launch worker fills the table
// from the launcher's start frame between New and Start; tests bind every
// listener up front.
func StaticRendezvous(addrs []string) (publish func(rank int, addr string) error, lookup func(rank int) (string, error)) {
	publish = func(int, string) error { return nil }
	lookup = func(rank int) (string, error) {
		if rank < 0 || rank >= len(addrs) {
			return "", fmt.Errorf("tcptransport: %w: no address for rank %d", cerr.ErrTransport, rank)
		}
		return addrs[rank], nil
	}
	return publish, lookup
}
