package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/storage"
)

// The serialized local checkpoint: the protocol section of Figure 4's
// potentialCheckpoint (epoch, early-message IDs), the MPI library state of
// Section 5.2 (outstanding request records, persistent-object call log),
// and the application state of Section 5.1 (PS + VDS + heap, produced by
// ckpt.Saver).
//
// The write path is split in two, which is what makes the asynchronous
// pipeline possible: captureState copies everything the checkpoint needs
// while the rank is stopped (protocol counters plus a ckpt.Frozen view of
// the application state — O(live-state-copy)); writeState serializes the
// capture and streams it through the store's chunked writer, as the body
// of the checkpoint's flush task (see flush.go).

type reqRecord struct {
	Handle Handle
	IsRecv bool
	Src    int
	Tag    int
	Done   bool
}

type checkpointState struct {
	Epoch    int
	EarlyIDs [][]uint32
	Persist  []PersistRecord
	Requests []reqRecord
	NextReq  Handle
	App      []byte // empty in NoAppState mode
}

// pendingCheckpoint is one captured-but-not-yet-durable local checkpoint.
// The flush task owns it while the write runs and hands it back to the rank
// goroutine through the flushTask.
type pendingCheckpoint struct {
	epoch  int
	hdr    checkpointState // App nil; the app section is streamed from frozen
	frozen *ckpt.Frozen    // nil outside Full mode
	hdrRaw []byte          // hdr as writeState streamed it: the bytes that open the state object
}

// stateMagicV2 marks the streamed state-blob layout: magic, uvarint-framed
// gob protocol header, then the raw application-state stream.
var stateMagicV2 = []byte("C3SB0002")

// captureState is the blocking half of a local checkpoint: it copies the
// protocol section and freezes the application state. No serialization or
// storage I/O happens here.
func (l *Layer) captureState() (*pendingCheckpoint, error) {
	p := &pendingCheckpoint{epoch: l.epoch}
	p.hdr = checkpointState{
		Epoch: l.epoch,
		// The outer slices are re-pointed (earlyIDs) or appended to
		// (persist) after the capture, so they are copied; the inner data
		// is never mutated once recorded.
		EarlyIDs: append([][]uint32(nil), l.earlyIDs...),
		Persist:  append([]PersistRecord(nil), l.persist...),
		NextReq:  l.handles.nextReq,
	}
	for h, r := range l.handles.reqs {
		p.hdr.Requests = append(p.hdr.Requests, reqRecord{Handle: h, IsRecv: r.isRecv, Src: r.src, Tag: r.tag, Done: r.done})
	}
	if l.cfg.Mode == Full {
		f, err := l.Saver.Freeze()
		if err != nil {
			return nil, err
		}
		if l.cfg.FreezeCrossCheck {
			// The rank is still blocked, so the live state is exactly what
			// the frozen view claims to be: any byte difference means a
			// mutation escaped the Touch write-intent contract — the
			// application's bug, reported in its category.
			if err := l.Saver.VerifyFrozen(f); err != nil {
				f.Release()
				return nil, fmt.Errorf("%w: %w", cerr.ErrProgram, err)
			}
		}
		p.frozen = f
		copied, dirty, regions := f.CopyStats()
		l.Stats.CheckpointBytesCopied += copied
		l.Stats.CheckpointRegionsDirty += int64(dirty)
		l.Stats.CheckpointRegions += int64(regions)
	}
	return p, nil
}

// writeState serializes a captured checkpoint and streams it into the
// store through the chunked writer. It runs on the flush task's goroutine
// unless the policy is Sync, so it must not touch any mutable Layer state —
// only the immutable cfg/rank and the capture itself, whose frozen view it
// reads and does not release: that is finishFlush's, which keeps the view
// for rollback. It reports the logical blob size and the bytes actually
// written (dedup savings excluded).
func (l *Layer) writeState(p *pendingCheckpoint) (total, written int64, err error) {
	var hdr bytes.Buffer
	hdr.Write(stateMagicV2)
	var gb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(&p.hdr); err != nil {
		return 0, 0, fmt.Errorf("protocol: encode checkpoint state: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	hdr.Write(tmp[:binary.PutUvarint(tmp[:], uint64(gb.Len()))])
	hdr.Write(gb.Bytes())
	p.hdrRaw = hdr.Bytes()

	w := l.cfg.Store.StateWriter(l.cfg.Ctx, p.epoch, l.rank, storage.DefaultChunkSize)
	// Join the writer's hash worker on every exit; a no-op after Commit.
	defer w.Abort()
	var sw ckpt.SectionWriter = w
	if l.pace != nil {
		// Under a FlushBandwidth cap every stream write is charged to the
		// token bucket, so the cap paces the whole write — the
		// serialization memcopies as well as the store Puts behind them.
		sw = pacedSection{w: w, pace: l.pace}
	}
	if _, err := sw.Write(p.hdrRaw); err != nil {
		return 0, 0, err
	}
	// Cut after the header: its size varies epoch to epoch, and the cut
	// keeps that variation from shifting the application stream's chunk
	// boundaries (which would defeat cross-epoch dedup).
	if err := sw.Cut(); err != nil {
		return 0, 0, err
	}
	if p.frozen != nil {
		if err := p.frozen.WriteTo(sw); err != nil {
			return 0, 0, err
		}
	}
	total, written, err = w.Commit()
	if err != nil {
		return total, written, err
	}
	// The recovery-metadata sidecar rides behind the state manifest — it
	// must never exist without the state it summarizes — and completes the
	// local checkpoint: the recovery gather reads nothing else.
	meta := recoveryMeta{Epoch: p.epoch, EarlyIDs: p.hdr.EarlyIDs}
	if p.frozen != nil {
		meta.Replicated = p.frozen.ReplicatedCarried()
	}
	return total, written, l.cfg.Store.PutMeta(p.epoch, l.rank, meta.marshal())
}

// pacedSection charges the chunked state writer's stream to the
// FlushBandwidth token bucket; Cut passes through so chunk boundaries are
// unchanged.
type pacedSection struct {
	w    *storage.ChunkedWriter
	pace *flushPacer
}

func (s pacedSection) Write(p []byte) (int, error) {
	s.pace.acquire(len(p))
	return s.w.Write(p)
}

func (s pacedSection) Cut() error { return s.w.Cut() }

// unmarshalState decodes a state blob — or its header alone, which is what a
// survivor retains; App is a view of raw, not a copy.
func unmarshalState(raw []byte) (*checkpointState, error) {
	rest, ok := bytes.CutPrefix(raw, stateMagicV2)
	n, w := binary.Uvarint(rest)
	if !ok || w <= 0 || n > uint64(len(rest)-w) || !ckpt.GobFramed(rest[w:w+int(n)]) {
		return nil, fmt.Errorf("protocol: %w: corrupt checkpoint state header", cerr.ErrStore)
	}
	hdr, app := rest[w:w+int(n)], rest[w+int(n):]
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(hdr)).Decode(&st); err != nil {
		return nil, fmt.Errorf("protocol: %w: decode checkpoint state: %w", cerr.ErrStore, err)
	}
	st.App = app
	return &st, nil
}

// Restore rebuilds the layer from the committed global checkpoint at the
// given epoch, always reading the store. See RestoreFrom.
func (l *Layer) Restore(epoch int, suppress []uint32) error {
	return l.RestoreFrom(&RankRecovery{Epoch: epoch, Suppress: suppress}, nil)
}

// RestoreFrom rebuilds the layer from the committed global checkpoint at
// rec.Epoch and, in Full mode, arms the Saver with its application state, so
// the registrations of the re-executing application restore their values.
// rec.Suppress lists the message IDs (gathered from every receiver's early-ID
// sets) that this rank must not re-send during recovery; rec.Replicas are the
// primary's replicated values. retained is what the rank's previous
// incarnation left behind (Layer.Retained), and the layer takes it over. The
// entry for exactly this epoch serves the header and the log from memory and
// arms the Saver straight from its frozen view — a surviving rank's localized
// rollback serializes nothing and touches the store not at all — and stays
// retained for the next rollback; every other entry is released. Without one,
// the state object and the log are read from the store.
func (l *Layer) RestoreFrom(rec *RankRecovery, retained []*RetainedState) error {
	epoch := rec.Epoch
	var ret *RetainedState
	for _, r := range retained {
		if r.Epoch == epoch {
			ret = r
		} else {
			r.Frozen.Release()
		}
	}
	var raw, logRaw []byte
	if ret != nil {
		raw, logRaw = ret.Header, ret.Log
		l.ring[0] = ret
		l.Stats.RecoveredFromRetained++
		if l.cfg.Debug {
			// A survivor and a replacement must roll back to the same bytes.
			app, err := ret.Frozen.Snapshot()
			stored, gerr := l.cfg.Store.GetState(epoch, l.rank)
			if err != nil || gerr != nil || !bytes.HasPrefix(stored, raw) || !bytes.Equal(stored[len(raw):], app) {
				panic(fmt.Sprintf("protocol: rank %d: retained view of epoch %d is not the store's state object (serialize: %v, read: %v)", l.rank, epoch, err, gerr))
			}
		}
	} else {
		var err error
		raw, err = l.cfg.Store.GetState(epoch, l.rank)
		if err != nil {
			return fmt.Errorf("protocol: load state (epoch %d, rank %d): %w", epoch, l.rank, err)
		}
		logRaw, err = l.cfg.Store.GetLog(epoch, l.rank)
		if err != nil {
			return fmt.Errorf("protocol: load log (epoch %d, rank %d): %w", epoch, l.rank, err)
		}
	}
	st, err := unmarshalState(raw)
	if err != nil {
		return err
	}
	if st.Epoch != epoch {
		return fmt.Errorf("protocol: %w: state blob of rank %d records epoch %d, requested epoch %d", cerr.ErrStore, l.rank, st.Epoch, epoch)
	}
	lg, err := UnmarshalLog(logRaw)
	if err != nil {
		return err
	}
	if l.cfg.Mode == Full {
		if ret != nil {
			err = l.Saver.StartRestoreView(ret.Frozen)
		} else {
			err = l.Saver.StartRestore(st.App)
		}
		if err != nil {
			return fmt.Errorf("protocol: restore application state (epoch %d, rank %d): %w", epoch, l.rank, err)
		}
		l.Saver.VDS.SetReplicas(rec.Replicas)
	}

	l.epoch = epoch
	l.amLogging = false // the committed checkpoint's logging phase finished
	l.nextMessageID = 0
	l.checkpointRequested = false
	l.requestedEpoch = 0
	l.recvSeq, l.collSeq, l.eventSeq = 0, 0, 0
	l.log = NewLog()
	l.restarted = true
	for p := 0; p < l.size; p++ {
		// Early messages recorded at the checkpoint were sent in the
		// restored epoch: they seed the receive counts exactly as the
		// original post-checkpoint transition did.
		l.currentReceiveCount[p] = int64(len(st.EarlyIDs[p]))
		l.previousReceiveCount[p] = 0
		l.sendCount[p] = 0
		l.totalSent[p] = -1
	}
	l.earlyIDs = make([][]uint32, l.size)

	l.replay = NewReplay(lg)
	l.suppress = make(map[uint32]bool, len(rec.Suppress))
	for _, id := range rec.Suppress {
		l.suppress[id] = true
	}
	l.suppressPending = len(l.suppress)

	// MPI library state: replay persistent-object calls, re-initialize
	// request pseudo-handles.
	l.handles = newHandleTable()
	l.replayPersistent(st.Persist)
	l.handles.nextReq = st.NextReq
	for _, r := range st.Requests {
		l.handles.reqs[r.Handle] = &reqState{isRecv: r.IsRecv, src: r.Src, tag: r.Tag, done: r.Done}
	}
	return nil
}

// ReplayPending reports whether the layer is still consuming a recovered
// log (diagnostics and tests).
func (l *Layer) ReplayPending() bool {
	return l.replay != nil && !l.replay.Exhausted()
}

// SuppressPending reports how many early re-sends are still due.
func (l *Layer) SuppressPending() int { return l.suppressPending }
