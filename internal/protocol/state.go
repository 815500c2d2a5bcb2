package protocol

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"ccift/internal/cerr"
	"ccift/internal/storage"
)

// The local checkpoint: the application state of Section 5.1 (ckpt.Saver),
// streamed into the state object, and the protocol record (record,
// recovery.go) — Figure 4's epoch and early-message IDs and the MPI library
// state of Section 5.2 — in a blob of its own. captureState copies what the
// checkpoint needs while the rank is stopped — the record, and a
// ckpt.Frozen view of the application state — into the flush task, and
// writeState, the task's body (flush.go), streams it into the store.

// verifyFreezes is the VerifyEveryFreeze seam.
var verifyFreezes atomic.Bool

// VerifyEveryFreeze is a test seam, not an option: from here on, for the
// life of the process, every freeze is verified against the live state as
// if Debug were set. A suite calls it from TestMain to soak every program
// it runs — Debug or not, worker processes included — for a write that
// escaped Touch.
func VerifyEveryFreeze() { verifyFreezes.Store(true) }

// captureState is the blocking half of the local checkpoint of epoch: it
// freezes the application state and encodes the protocol record, a few
// hundred bytes. No storage I/O happens here.
func (l *Layer) captureState(epoch int) (*flushTask, error) {
	p := &flushTask{epoch: epoch}
	rec := record{Epoch: epoch, EarlyIDs: l.m.earlyIDs, Persist: l.persist, NextReq: l.handles.nextReq}
	if l.cfg.Mode == Full {
		f, err := l.Saver.Freeze()
		if err != nil {
			return nil, err
		}
		if l.cfg.Debug || verifyFreezes.Load() {
			// The rank is still blocked, so the live state is exactly what
			// the frozen view claims to be: any byte difference means a
			// mutation escaped the Touch write-intent contract — the
			// application's bug, reported in its category.
			if err := l.Saver.VerifyFrozen(f); err != nil {
				f.Release()
				return nil, err
			}
		}
		p.frozen = f
		rec.Replicated = f.ReplicatedCarried()
		copied, dirty, regions := f.CopyStats()
		l.Stats.CheckpointBytesCopied += copied
		l.Stats.CheckpointRegionsDirty += int64(dirty)
		l.Stats.CheckpointRegions += int64(regions)
	}
	for h, r := range l.handles.reqs {
		rec.Requests = append(rec.Requests, reqRecord{h, *r})
	}
	slices.SortFunc(rec.Requests, func(a, b reqRecord) int { return cmp.Compare(a.Handle, b.Handle) })
	p.record = rec.marshal()
	return p, nil
}

// writeState streams a captured checkpoint into the store: the
// application state through the chunked writer (Full mode only; the other
// modes store no state object), then the protocol record. It runs on the
// flush task's goroutine unless the policy is Sync, so it must not touch
// any mutable Layer state — only the immutable cfg/rank and the capture
// itself, whose frozen view it reads and does not release: that is
// finishFlush's, which keeps the view for rollback. It reports the logical
// size of the checkpoint and the bytes actually written (dedup savings
// excluded).
func (l *Layer) writeState(p *flushTask) (total, written int64, err error) {
	if p.frozen != nil {
		w := l.cfg.Store.StateWriter(l.cfg.Ctx, p.epoch, l.rank, storage.DefaultChunkSize)
		// Finish the writer on every exit; a no-op after Commit. The frozen
		// view it was lent stays unreleased until this returns.
		defer w.Abort()
		if err := p.frozen.WriteTo(w); err != nil {
			return 0, 0, err
		}
		if total, written, err = w.Commit(); err != nil {
			return total, written, err
		}
	}
	// The record rides behind the state manifest — it must never exist
	// without the state it completes — and completes the local checkpoint:
	// the recovery gather reads nothing else.
	n := int64(len(p.record))
	return total + n, written + n, l.cfg.Store.PutMeta(p.epoch, l.rank, p.record)
}

// RestoreFrom rebuilds the layer from the committed global checkpoint at
// rec.Epoch and, in Full mode, arms the Saver with its application state, so
// the registrations of the re-executing application restore their values.
// The whole protocol section comes from rec.Record, the rank's protocol
// record as the recovery gather read it. rec.Suppress lists the message IDs
// (gathered from every receiver's early-ID sets) that this rank must not
// re-send during recovery; rec.Replicas are the primary's replicated values.
// retained is what the rank's previous incarnation left behind
// (Layer.Retained), and the layer takes it over. The entry for exactly this
// epoch serves the log from memory and arms the Saver straight from its
// frozen view — a surviving rank's localized rollback serializes nothing and
// touches the store not at all — and stays retained for the next rollback;
// every other entry is released. Without one, the log and the head of the
// state object are read from the store, and each large []float64 or []byte
// value is read from its chunks straight into the variable when the
// re-executing program registers it.
func (l *Layer) RestoreFrom(rec *RankRecovery, retained []*RetainedState) error {
	epoch := rec.Epoch
	st, err := unmarshalRecord(rec.Record)
	if err == nil && st.Epoch != epoch {
		err = fmt.Errorf("%w: it records another epoch", cerr.ErrStore)
	}
	if err != nil {
		return fmt.Errorf("protocol: protocol record of rank %d, epoch %d: %w", l.rank, epoch, err)
	}
	var ret *RetainedState
	for _, r := range retained {
		if r.Epoch == epoch {
			ret = r
		} else {
			r.Frozen.Release()
		}
	}
	var obj *storage.Object
	var logRaw []byte
	if ret != nil {
		logRaw = ret.Log
		l.ring[0] = ret
		l.Stats.RecoveredFromRetained++
		if l.cfg.Debug {
			// A survivor and a replacement must roll back to the same bytes.
			app, err := ret.Frozen.Snapshot()
			stored, gerr := l.cfg.Store.GetState(epoch, l.rank)
			if err != nil || gerr != nil || !bytes.Equal(stored, app) {
				panic(fmt.Sprintf("protocol: rank %d: retained view of epoch %d is not the store's state object (serialize: %v, read: %v)", l.rank, epoch, err, gerr))
			}
		}
	} else {
		if l.cfg.Mode == Full {
			if obj, err = l.cfg.Store.OpenState(epoch, l.rank); err != nil {
				return fmt.Errorf("protocol: load state (epoch %d, rank %d): %w", epoch, l.rank, err)
			}
		}
		if logRaw, err = l.cfg.Store.GetLog(epoch, l.rank); err != nil {
			return fmt.Errorf("protocol: load log (epoch %d, rank %d): %w", epoch, l.rank, err)
		}
	}
	lg, err := UnmarshalLog(logRaw)
	if err != nil {
		return err
	}
	if l.cfg.Mode == Full {
		if ret != nil {
			l.Saver.StartRestoreView(ret.Frozen)
		} else if err = l.Saver.StartRestoreFrom(obj); err != nil {
			return fmt.Errorf("protocol: restore application state (epoch %d, rank %d): %w", epoch, l.rank, err)
		}
		l.Saver.VDS.SetReplicas(rec.Replicas)
	}

	l.m.restore(epoch, st.EarlyIDs, rec.Suppress)
	l.recvSeq, l.collSeq, l.eventSeq = 0, 0, 0
	l.log = NewLog()
	l.replay = NewReplay(lg)

	// MPI library state: replay persistent-object calls, re-initialize
	// request pseudo-handles.
	l.handles = newHandleTable()
	l.replayPersistent(st.Persist)
	l.handles.nextReq = st.NextReq
	for _, r := range st.Requests {
		l.handles.reqs[r.Handle] = &r.reqState
	}
	return nil
}
