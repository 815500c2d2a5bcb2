package ckpt

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"ccift/internal/cerr"
)

// State-exclusion optimizations (paper Section 7). The paper's system
// saves everything; its future-work section sketches three reductions:
//
//   - Recomputation checkpointing ("for some data structures, a compiler
//     might be able to determine how to recompute their values. If the
//     description of this recomputation requires less space than storing
//     their data, we should store the description, rather than the data"):
//     PushComputed stores only the variable's fingerprint; on restart the
//     registered recompute function regenerates the value and the
//     fingerprint is verified. Read-only data (CG's matrix block) is the
//     special case where the recomputation is the original initializer.
//     It is the one registration kind beside the plain saved value.
//
//   - Distributed redundant data ("if multiple nodes each have a copy of
//     the same data structure, only one of the nodes needs to include it in
//     its checkpoint") needs no entry kind: the store names each chunk by
//     its content (internal/storage), so identical bytes that several
//     ranks save are stored once.
//
// Dead-variable exclusion (the paper's third direction, compiler-assisted
// checkpointing of live data only) needs none either: a variable not
// currently pushed is not saved, and the precompiler's liveness pass
// (internal/precompiler/liveness.go) decides what to push, leaving out a
// variable that every path from each checkpoint site rewrites in full
// before reading it.

// entryKind discriminates how a VDS entry is checkpointed.
type entryKind byte

const (
	kindSaved    entryKind = iota + 1 // full value in the checkpoint
	kindComputed                      // fingerprint only; recomputed on restart
)

// PushComputed registers a variable whose value is excluded from
// checkpoints: only a fingerprint is saved, and on restart recompute must
// regenerate the identical value (the fingerprint is verified). ptr must be
// a pointer to a laid-out type, as for Push.
//
// If a restart is in progress and a saved fingerprint exists under name,
// recompute runs immediately and the result is checked.
func (v *VDS) PushComputed(name string, ptr any, recompute func() error) error {
	scalar, err := admit("PushComputed", name, ptr)
	if err != nil {
		return err
	}
	if recompute == nil {
		return fmt.Errorf("%w: ckpt: VDS.PushComputed(%q): nil recompute function", cerr.ErrProgram, name)
	}
	v.pushEntry(vdsEntry{name: name, ptr: ptr, kind: kindComputed, recompute: recompute, scalar: scalar})
	if v.restore != nil {
		if rec, ok := v.restore[name]; ok {
			if rec.kind != kindComputed {
				return fmt.Errorf("%w: ckpt: restore %q: checkpoint kind %d, registered as computed", cerr.ErrProgram, name, rec.kind)
			}
			if err := recompute(); err != nil {
				return fmt.Errorf("ckpt: recompute %q: %w", name, err)
			}
			if !bytes.Equal(fingerprint(ptr), rec.data) {
				return fmt.Errorf("%w: ckpt: recompute %q: fingerprint mismatch — the recomputation does not reproduce the checkpointed value", cerr.ErrProgram, name)
			}
			delete(v.restore, name)
		}
	}
	return nil
}

// fingerprint hashes a value's encoding; 16 bytes of FNV-128a.
func fingerprint(ptr any) []byte {
	h := fnv.New128a()
	h.Write(Encode(ptr))
	return h.Sum(nil)
}
