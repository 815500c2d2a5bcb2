package ckpt

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"ccift/internal/cerr"
)

// State-exclusion optimizations (paper Section 7). The paper's system
// saves everything; its future-work section sketches three reductions,
// implemented here as additional VDS registration kinds:
//
//   - Recomputation checkpointing ("for some data structures, a compiler
//     might be able to determine how to recompute their values. If the
//     description of this recomputation requires less space than storing
//     their data, we should store the description, rather than the data"):
//     PushComputed stores only the variable's fingerprint; on restart the
//     registered recompute function regenerates the value and the
//     fingerprint is verified. Read-only data (CG's matrix block) is the
//     special case where the recomputation is the original initializer.
//
//   - Distributed redundant data ("if multiple nodes each have a copy of
//     the same data structure, only one of the nodes needs to include it in
//     its checkpoint. On restart, the other nodes will obtain their copy
//     from the one that saved it"): PushReplicated stores the data only on
//     the primary rank's Saver; recovery extracts the primary's copy from
//     its checkpoint and distributes it to every other rank's restore map.
//
// Dead-variable exclusion (the paper's third direction, compiler-assisted
// checkpointing of live data only) needs no entry kind: a variable not
// currently pushed is not saved, and the precompiler's liveness pass
// (internal/precompiler/liveness.go) decides what to push, leaving out a
// variable that every path from each checkpoint site rewrites in full
// before reading it.

// entryKind discriminates how a VDS entry is checkpointed.
type entryKind byte

const (
	kindSaved      entryKind = iota + 1 // full value in the checkpoint
	kindComputed                        // fingerprint only; recomputed on restart
	kindReplicated                      // full value on the primary rank only
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

// PushReplicated registers a variable that every rank holds identically.
// Only the primary rank's checkpoint carries the value; the others carry a
// marker. On restart the recovery driver supplies the primary's copy via
// SetReplicas, and this registration restores from it. ptr must be a
// pointer to a laid-out type, as for Push.
func (v *VDS) PushReplicated(name string, ptr any) error {
	scalar, err := admit("PushReplicated", name, ptr)
	if err != nil {
		return err
	}
	v.pushEntry(vdsEntry{name: name, ptr: ptr, kind: kindReplicated, scalar: scalar})
	if v.restore != nil {
		if rec, ok := v.restore[name]; ok {
			if rec.kind != kindReplicated {
				return fmt.Errorf("%w: ckpt: restore %q: checkpoint kind %d, registered as replicated", cerr.ErrProgram, name, rec.kind)
			}
			if rec.pages == nil && rec.val == nil && len(rec.data) == 0 {
				// This rank was not the primary: the value comes from the
				// primary's checkpoint, distributed by the recovery driver.
				replica, ok := v.replicas[name]
				if !ok {
					return fmt.Errorf("%w: ckpt: restore %q: no replica available — was the primary's checkpoint loaded?", cerr.ErrProgram, name)
				}
				rec.data = replica
			}
			if err := rec.into(ptr, &v.scratch); err != nil {
				return fmt.Errorf("ckpt: restore replicated %q: %w", name, err)
			}
			delete(v.restore, name)
		}
	}
	return nil
}

// SetReplicas supplies the primary rank's replicated values for a restart
// in progress (recovery-driver plumbing).
func (v *VDS) SetReplicas(replicas map[string][]byte) {
	v.replicas = replicas
}

// fingerprint hashes a value's encoding; 16 bytes of FNV-128a.
func fingerprint(ptr any) []byte {
	h := fnv.New128a()
	h.Write(Encode(ptr))
	return h.Sum(nil)
}

// ReplicatedCarried reports how many replicated values the frozen state
// carries in full — what ExtractReplicated would find in its serialized
// form: every replicated registration on the primary rank, none elsewhere.
func (f *Frozen) ReplicatedCarried() int {
	n := 0
	for _, e := range f.vds {
		if e.kind == kindReplicated && e.size > 0 {
			n++
		}
	}
	return n
}

// ExtractReplicated parses a state blob and returns the replicated values
// it carries (non-empty only for the primary rank's blob), as views of
// snapshot. The recovery driver calls this on the primary's
// application-state blob and hands the result to every other rank's Saver.
func ExtractReplicated(snapshot []byte) (map[string][]byte, error) {
	f, err := parseState(snapshot)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range f.vds {
		if e.kind == kindReplicated && len(e.enc) > 0 {
			out[e.name] = e.enc
		}
	}
	return out, nil
}
