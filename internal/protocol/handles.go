package protocol

import "fmt"

// Pseudo-handles (Section 5.2).
//
// The layer cannot save MPI's internal state, so the application only ever
// sees pseudo-handles; the real opaque objects live behind them. Requests,
// the only objects a program creates, are transient: they are
// re-initialized from the request records saved with the checkpoint.
// Section 5.2's persistent objects (communicators), recreated by replaying
// the calls that made them, are not reproduced: a program has the world
// communicator only, through the layer.

type handleTable struct {
	nextReq Handle
	reqs    map[Handle]*reqState
	// free holds the states of completed receive requests for the next
	// Irecv: a program that posts a receive per iteration allocates none.
	free []*reqState
}

func newHandleTable() *handleTable {
	return &handleTable{
		nextReq: 1,
		reqs:    map[Handle]*reqState{},
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
