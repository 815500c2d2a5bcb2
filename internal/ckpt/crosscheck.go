package ckpt

import (
	"bytes"
	"fmt"

	"ccift/internal/wire"
)

// Freeze cross-checking: the debug mode guarding incremental-by-default.
// A program that mutates a registered non-scalar without a Touch (or
// TouchRange) never corrupts a FULL freeze — only the incremental path
// trusts the write clock — so a missing Touch is invisible until a
// recovery restores stale state. VerifyFrozen makes the violation loud at
// the checkpoint that commits it: called immediately after Freeze, while
// the rank is still blocked and the live state is exactly what the frozen
// view claims to be, it re-encodes every live variable and heap block and
// compares against what the frozen view will serialize. Any divergence
// means the view re-referenced a stale region, and the error names the
// variable (or block) so the missing Touch is a one-line fix.

// VerifyFrozen compares a freshly captured Frozen view against the
// Saver's live state, byte for byte. It must run directly after Freeze,
// before the application mutates anything — the protocol layer calls it
// inside the blocking window when cross-checking is enabled. The first
// mismatch is returned as an error naming the stale variable or heap
// block. Cost is one full encode of the live state per call, so this is
// a debug mode, not a production default.
func (s *Saver) VerifyFrozen(f *Frozen) error {
	var got []byte
	for i := range f.vds {
		fe := &f.vds[i]
		idx, ok := s.VDS.index[fe.name]
		if !ok {
			return fmt.Errorf("ckpt: freeze cross-check: frozen variable %q is not live", fe.name)
		}
		want, err := s.VDS.record(&s.VDS.entries[idx])
		if err != nil {
			return fmt.Errorf("ckpt: freeze cross-check: encode live %q: %w", fe.name, err)
		}
		if got = wire.Encode(got[:0], fe.record); !bytes.Equal(got, want) {
			return fmt.Errorf("ckpt: freeze cross-check: variable %q: the frozen copy differs from the live value — "+
				"a write since the last checkpoint was not followed by Touch/TouchRange(%q)", fe.name, fe.name)
		}
	}
	for i := range f.heap.blocks {
		fb := &f.heap.blocks[i]
		b, ok := s.Heap.blocks[fb.id]
		if !ok {
			return fmt.Errorf("ckpt: freeze cross-check: frozen heap block %d is not live", fb.id)
		}
		if !bytes.Equal(fb.data, b.Data) {
			return fmt.Errorf("ckpt: freeze cross-check: heap block %d: the frozen copy differs from the live data — "+
				"a write since the last checkpoint was not followed by Heap.Touch(%d)", fb.id, fb.id)
		}
	}
	return nil
}
