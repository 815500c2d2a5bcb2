package protocol

import (
	"fmt"

	"ccift/internal/mpi"
)

// Pseudo-handles and persistent-object replay (Section 5.2).
//
// The layer cannot save MPI's internal state, so the application only ever
// sees pseudo-handles; the real opaque objects live behind them. Transient
// objects (requests) are re-initialized from the request records saved with
// the checkpoint. Persistent objects (communicators and friends) are
// recreated by replaying, in order, the record of every call that created
// or manipulated them.

// CommHandle is the application-visible pseudo-handle for a communicator.
// Handle 0 is the world communicator.
type CommHandle int64

// WorldComm is the pseudo-handle of the world communicator.
const WorldComm CommHandle = 0

// PersistRecord records one persistent-object call for replay on restart.
type PersistRecord struct {
	// Op is the call name ("dup" or "split").
	Op string
	// Parent is the pseudo-handle the call operated on.
	Parent CommHandle
	// Args are the call's integer arguments (color, key for split).
	Args []int64
	// Result is the pseudo-handle assigned to the created object.
	Result CommHandle
}

type handleTable struct {
	nextReq  Handle
	reqs     map[Handle]*reqState
	nextComm CommHandle
	comms    map[CommHandle]*mpi.Comm
	// free holds the states of completed receive requests for the next
	// Irecv: a program that posts a receive per iteration allocates none.
	free []*reqState
}

func newHandleTable() *handleTable {
	return &handleTable{
		nextReq:  1,
		reqs:     map[Handle]*reqState{},
		nextComm: 1,
		comms:    map[CommHandle]*mpi.Comm{},
	}
}

func (t *handleTable) newRequest(st *reqState) Handle {
	h := t.nextReq
	t.nextReq++
	t.reqs[h] = st
	return h
}

// newRecv registers a receive request for (src, tag).
func (t *handleTable) newRecv(src, tag int) Handle {
	var st *reqState
	if n := len(t.free); n > 0 {
		st, t.free = t.free[n-1], t.free[:n-1]
	} else {
		st = new(reqState)
	}
	*st = reqState{isRecv: true, src: src, tag: tag}
	return t.newRequest(st)
}

func (t *handleTable) request(h Handle) *reqState {
	st, ok := t.reqs[h]
	if !ok {
		panic(fmt.Sprintf("protocol: unknown or already-released request handle %d", h))
	}
	return st
}

// release forgets h. Its state goes back to the free list, so nothing may
// read it afterwards.
func (t *handleTable) release(h Handle) {
	if st := t.reqs[h]; st != sendDone {
		t.free = append(t.free, st)
	}
	delete(t.reqs, h)
}

// CommDup duplicates the communicator behind parent, records the call for
// recovery replay, and returns the new pseudo-handle. Collective over the
// parent communicator.
func (l *Layer) CommDup(parent CommHandle) CommHandle {
	l.enterOp()
	c := l.lookupComm(parent)
	dup := c.Dup()
	h := l.handles.nextComm
	l.handles.nextComm++
	l.handles.comms[h] = dup
	l.persist = append(l.persist, PersistRecord{Op: "dup", Parent: parent, Result: h})
	return h
}

// CommSplit splits the communicator behind parent, records the call, and
// returns the new pseudo-handle (or a negative sentinel for color < 0).
// Collective over the parent communicator.
func (l *Layer) CommSplit(parent CommHandle, color, key int) CommHandle {
	l.enterOp()
	c := l.lookupComm(parent)
	sub := c.Split(color, key)
	h := l.handles.nextComm
	l.handles.nextComm++
	if sub != nil {
		l.handles.comms[h] = sub
	}
	l.persist = append(l.persist, PersistRecord{Op: "split", Parent: parent, Args: []int64{int64(color), int64(key)}, Result: h})
	return h
}

// SubComm returns the raw communicator behind a pseudo-handle. Sub-
// communicator traffic is not piggybacked (the protocol, as presented in
// the paper, coordinates the world communicator); the pseudo-handle
// machinery exists so that such objects survive recovery.
func (l *Layer) SubComm(h CommHandle) *mpi.Comm { return l.lookupComm(h) }

func (l *Layer) lookupComm(h CommHandle) *mpi.Comm {
	if h == WorldComm {
		return l.comm
	}
	c, ok := l.handles.comms[h]
	if !ok {
		panic(fmt.Sprintf("protocol: unknown communicator pseudo-handle %d", h))
	}
	return c
}

// replayPersistent re-executes the recorded persistent-object calls to
// rebuild the pseudo-handle table after a restart. Every rank replays the
// same collective calls in the same order, so the replay itself is a valid
// collective execution.
func (l *Layer) replayPersistent(records []PersistRecord) {
	for _, r := range records {
		parent := l.lookupComm(r.Parent)
		switch r.Op {
		case "dup":
			l.handles.comms[r.Result] = parent.Dup()
		case "split":
			sub := parent.Split(int(r.Args[0]), int(r.Args[1]))
			if sub != nil {
				l.handles.comms[r.Result] = sub
			}
		default:
			panic(fmt.Sprintf("protocol: unknown persistent record op %q", r.Op))
		}
		if r.Result >= l.handles.nextComm {
			l.handles.nextComm = r.Result + 1
		}
	}
	l.persist = records
}
