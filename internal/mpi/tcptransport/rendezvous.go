package tcptransport

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// FileRendezvous builds Publish/Lookup functions over a shared directory:
// each rank writes its bound address to addr.<rank> (atomically, via
// temp-file + rename, so a polling peer never reads a torn address) and
// peers poll until the file appears or timeout expires. The launcher hands
// every worker of one incarnation the same directory; a fresh directory per
// incarnation keeps stale addresses of dead processes out of the mesh.
// canceled, when non-nil, is a cancellation probe: lookup fails fast once
// it reports true. A launcher that abandons an incarnation
// mid-mesh-formation (the ABORT marker) uses it so parked workers stop
// waiting for addresses that will never be published.
func FileRendezvous(dir string, timeout time.Duration, canceled func() bool) (publish func(rank int, addr string) error, lookup func(rank int) (string, error)) {
	path := func(rank int) string {
		return filepath.Join(dir, "addr."+strconv.Itoa(rank))
	}
	publish = func(rank int, addr string) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(dir, ".addr.tmp*")
		if err != nil {
			return err
		}
		if _, err := tmp.WriteString(addr); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return os.Rename(tmp.Name(), path(rank))
	}
	lookup = func(rank int) (string, error) {
		deadline := time.Now().Add(timeout)
		for {
			b, err := os.ReadFile(path(rank))
			if err == nil && len(b) > 0 {
				return string(b), nil
			}
			if canceled != nil && canceled() {
				return "", fmt.Errorf("tcptransport: rendezvous in %s canceled before rank %d published", dir, rank)
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("tcptransport: rank %d never published an address in %s", rank, dir)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return publish, lookup
}

// StaticRendezvous builds Publish/Lookup over a fixed address table; used
// by tests that bind every listener up front.
func StaticRendezvous(addrs []string) (publish func(rank int, addr string) error, lookup func(rank int) (string, error)) {
	publish = func(int, string) error { return nil }
	lookup = func(rank int) (string, error) {
		if rank < 0 || rank >= len(addrs) {
			return "", fmt.Errorf("tcptransport: no address for rank %d", rank)
		}
		return addrs[rank], nil
	}
	return publish, lookup
}
