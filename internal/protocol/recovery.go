package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/storage"
)

// Recovery gather: what a restart needs to know before any rank
// re-executes. On rollback every sender must learn which of its messages
// the receivers already hold (Section 4.2), so the union of all receivers'
// early-ID sets, re-indexed by sender, is the world's suppression table —
// nothing there needs application state. Every local checkpoint ends with
// its protocol record (storage.MetaKey), a few hundred bytes; the one
// gather (GatherRecovery), run once per rollback by engine.Supervisor,
// reads exactly `ranks` of them and ships each rank its slice
// (RankRecovery), its own record included. The primary's application
// stream is opened only when its record counts replicated values
// (Section 7), which stay in the stream where they dedup across epochs.
// The record is required: the supervisor clears the commit record before
// incarnation 0, so a committed epoch without one is a corrupt store
// (cerr.ErrStore).

// record is a local checkpoint's protocol record: the protocol section of
// Figure 4 (the epoch and the early-message IDs), the MPI library state of
// Section 5.2 (the persistent-object call log and the request records, by
// handle) and how many replicated values the rank's application stream
// carries. It is the checkpoint's only copy of all of these; the state
// object holds the application stream alone. Epoch is recorded so a reader
// can detect a record that somehow outlived its epoch directory.
type record struct {
	Epoch      int
	EarlyIDs   [][]uint32 // indexed by sending rank
	Replicated int
	Persist    []PersistRecord
	Requests   []reqRecord // sorted by handle: the bytes are a function of the state
	NextReq    Handle
}

type reqRecord struct {
	Handle Handle
	reqState
}

// recordMagic opens a record. Every number after it is a varint, every
// list its length and then its elements, in the order code visits them.
var recordMagic = []byte("C3RM0003")

// code is the record's one layout: it visits every field in wire order,
// and c appends or decodes each.
func (m *record) code(c *codec) {
	val(c, &m.Epoch)
	val(c, &m.Replicated)
	seq(c, &m.EarlyIDs, 1, func(set *[]uint32) { seq(c, set, 1, func(id *uint32) { val(c, id) }) })
	seq(c, &m.Persist, 4, func(p *PersistRecord) {
		c.str(&p.Op)
		val(c, &p.Parent)
		seq(c, &p.Args, 1, func(a *int64) { val(c, a) })
		val(c, &p.Result)
		c.bad = c.bad || c.dec && !(p.Op == "dup" && len(p.Args) == 0 || p.Op == "split" && len(p.Args) == 2)
	})
	seq(c, &m.Requests, 5, func(r *reqRecord) {
		val(c, &r.Handle)
		c.flag(&r.isRecv)
		val(c, &r.src)
		val(c, &r.tag)
		c.flag(&r.done)
	})
	val(c, &m.NextReq)
}

func (m *record) marshal() []byte {
	c := &codec{b: append([]byte(nil), recordMagic...)}
	m.code(c)
	return c.b
}

// unmarshalRecord decodes a record. Every count is checked against the
// bytes that are left — at the fewest bytes an element can take — before
// anything is allocated from it.
func unmarshalRecord(raw []byte) (*record, error) {
	rest, ok := bytes.CutPrefix(raw, recordMagic)
	c, m := &codec{b: rest, dec: true, bad: !ok}, &record{}
	m.code(c)
	if c.bad || len(c.b) != 0 {
		return nil, errors.New("truncated, overlong or not a protocol record")
	}
	return m, nil
}

// codec appends a record (b is the output) or decodes one (dec; b is what
// is left of the input, and bad is set at the first value that does not
// fit, after which every value reads as zero).
type codec struct {
	b        []byte
	dec, bad bool
}

// val codes an integer as a varint; decoded, it must fit in T.
func val[T ~int | ~int64 | ~uint32](c *codec, v *T) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, int64(*v))
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 || int64(T(x)) != x || c.bad {
		*v, c.bad = 0, true
		return
	}
	*v, c.b = T(x), c.b[n:]
}

// count codes a length; decoded, the bytes left must hold that many
// elements of at least min bytes.
func (c *codec) count(n, min int) int {
	val(c, &n)
	if c.dec && (n < 0 || n > len(c.b)/min) {
		n, c.bad = 0, true
	}
	return n
}

// seq codes a list, each element through elem; decoded, an empty list is
// nil.
func seq[T any](c *codec, s *[]T, min int, elem func(*T)) {
	n := c.count(len(*s), min)
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && !c.bad; i++ {
		elem(&(*s)[i])
	}
}

func (c *codec) str(s *string) {
	n := c.count(len(*s), 1)
	if !c.dec {
		c.b = append(c.b, *s...)
	} else if !c.bad {
		*s, c.b = string(c.b[:n]), c.b[n:]
	}
}

func (c *codec) flag(v *bool) {
	x := 0
	if *v {
		x = 1
	}
	val(c, &x)
	*v, c.bad = x == 1, c.bad || x>>1 != 0
}

// RecoveryPlan is everything a world needs to roll back to one committed
// epoch: per-SENDER suppression lists, the primary's replicated values and
// every rank's protocol record. Built once per restart by the recovery
// driver with O(world) small store reads, then sliced per rank.
type RecoveryPlan struct {
	// Epoch is the committed epoch the plan restores, or -1 for a restart
	// from the beginning (no checkpoint committed yet).
	Epoch int
	// Suppress is indexed by SENDING rank: Suppress[s] lists the message
	// IDs rank s must not re-send during recovery.
	Suppress [][]uint32
	// Replicas holds the primary rank's replicated values (Section 7);
	// nil when the primary's checkpoint carries none.
	Replicas map[string][]byte
	// records holds every rank's protocol record as the store held it.
	records [][]byte
}

// GatherRecovery builds the world's recovery plan for a committed epoch
// from `ranks` record reads, plus one read of the primary's application
// stream (its manifest and chunks) only when the primary's record says
// that stream carries replicated values. Each record is decoded once here
// and kept as read, for its rank. The suppression re-index is
// receiver-major, each receiver's per-sender set appended whole, so the
// order every sender sees is the same on every substrate.
func GatherRecovery(store *storage.CheckpointStore, epoch, ranks int) (*RecoveryPlan, error) {
	plan := &RecoveryPlan{Epoch: epoch, Suppress: make([][]uint32, ranks), records: make([][]byte, ranks)}
	for r := 0; r < ranks; r++ {
		corrupt := func(format string, args ...any) error {
			return fmt.Errorf("protocol: %w: protocol record of rank %d, epoch %d: "+format, append([]any{cerr.ErrStore, r, epoch}, args...)...)
		}
		raw, err := store.GetMeta(epoch, r)
		if err != nil {
			return nil, corrupt("%w", err)
		}
		m, err := unmarshalRecord(raw)
		if err != nil {
			return nil, corrupt("%w", err)
		}
		if m.Epoch != epoch || len(m.EarlyIDs) > ranks {
			return nil, corrupt("records epoch %d and %d senders in a world of %d", m.Epoch, len(m.EarlyIDs), ranks)
		}
		plan.records[r] = raw
		for sender, set := range m.EarlyIDs {
			if len(set) > 0 {
				plan.Suppress[sender] = append(plan.Suppress[sender], set...)
			}
		}
		if r == 0 && m.Replicated > 0 {
			if plan.Replicas, err = loadReplicas(store, epoch, m.Replicated); err != nil {
				return nil, err
			}
		}
	}
	return plan, nil
}

// loadReplicas extracts the primary's replicated values from its
// application stream; want is the count its record promised.
func loadReplicas(store *storage.CheckpointStore, epoch, want int) (map[string][]byte, error) {
	app, err := store.GetState(epoch, 0)
	if err != nil {
		return nil, fmt.Errorf("protocol: gather primary state (epoch %d): %w", epoch, err)
	}
	replicas, err := ckpt.ExtractReplicated(app)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w: extract replicated data (epoch %d): %w", cerr.ErrStore, epoch, err)
	}
	if len(replicas) != want {
		return nil, fmt.Errorf("protocol: %w: primary state of epoch %d carries %d replicated values, its record says %d", cerr.ErrStore, epoch, len(replicas), want)
	}
	for name, view := range replicas {
		replicas[name] = bytes.Clone(view) // the plan outlives the gather; do not pin the whole state
	}
	return replicas, nil
}

// RankRecovery is one rank's slice of a RecoveryPlan — what a driver ships
// to a single recovering worker. Epoch -1 means "fresh start, do not
// restore" (the world rolled back before any commit).
type RankRecovery struct {
	Epoch    int
	Suppress []uint32
	Replicas map[string][]byte
	// Record is the rank's own protocol record of Epoch, as stored: the
	// whole protocol section RestoreFrom rebuilds the layer from.
	Record []byte
}

// ForRank slices the plan for one rank; a nil plan is a fresh start.
func (p *RecoveryPlan) ForRank(r int) *RankRecovery {
	if p == nil {
		return &RankRecovery{Epoch: -1}
	}
	return &RankRecovery{Epoch: p.Epoch, Suppress: p.Suppress[r], Replicas: p.Replicas, Record: p.records[r]}
}

// RetainedState is a surviving rank's in-memory copy of one epoch's local
// checkpoint: the application state and the log. (The protocol section
// comes with the rank's slice of the gather, RankRecovery.Record.) The
// application state is not a second serialized copy but the frozen view
// the flush streamed to the store, so the views of
// consecutive epochs share every clean page and keeping them costs the
// dirty pages only. A rank that did not die rolls back from these instead
// of re-reading the store — its Saver restores straight out of the view,
// without serializing it — so a single death in a large world touches the
// store O(1) per survivor.
type RetainedState struct {
	Epoch  int
	Frozen *ckpt.Frozen // Snapshot() would yield the epoch's state object
	Log    []byte
}

// retainEpoch opens the ring entry of the local checkpoint of epoch, being
// taken, and releases the one that falls off: ring[0] is the epoch the rank is in,
// ring[1] the one before. Two, not one: at rollback time the committed
// epoch may trail the newest locally written one (a death mid-checkpoint),
// and retaining only the newest would miss exactly the epoch recovery
// wants. Not three: the previous epoch committed before any rank was asked
// for this one, so nothing older can be rolled back to — and releasing it
// here, ahead of the freeze, is what lets a program that dirties every page
// freeze into those very slabs.
func (l *Layer) retainEpoch(epoch int) {
	if old := l.ring[1]; old != nil {
		old.Frozen.Release()
	}
	l.ring[1], l.ring[0] = l.ring[0], &RetainedState{Epoch: epoch}
}

// Retained hands the driver the rank's in-memory checkpoints, newest first,
// once the incarnation is over (after Shutdown): the driver carries them to
// the rank's next incarnation, which takes them over in RestoreFrom. Only
// an epoch with both halves — flushed state and finalized log — can be
// rolled back to; a half-taken one is released. The views outlive this
// layer's Saver, so they are cut loose from its pool. Nil outside Full mode
// or when nothing durable exists yet.
func (l *Layer) Retained() []*RetainedState {
	var out []*RetainedState
	for _, r := range l.ring {
		if r == nil {
			continue
		}
		if r.Frozen == nil || r.Log == nil {
			r.Frozen.Release()
			continue
		}
		r.Frozen.Disown()
		out = append(out, r)
	}
	return out
}
