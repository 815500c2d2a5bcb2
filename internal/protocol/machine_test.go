package protocol

import (
	"encoding/binary"
	"hash/maphash"
	"maps"
	"slices"
	"testing"
)

// The state machine alone, without a world: every interleaving of events
// for 2 ranks over 2 epoch transitions — one global checkpoint, a rollback
// of both ranks to it once it has committed, and one more — explored
// depth-first with a visited-state set. The events are an application send,
// the delivery of any message in flight (FIFO per sender, receiver and tag,
// as MPI matches them), a collective, a potential checkpoint, the
// initiator's trigger, a durable flush and the program's return on either
// rank at every step. Each message carries the sender's full epoch, which
// the protocol never sees, so the test can hold the machine's two-bit
// classification to the truth.

const (
	exploreEpochs = 2 // epoch transitions: one per incarnation, before and after the rollback
	exploreSends  = 1 // application sends per rank per incarnation
	exploreColls  = 1 // collectives per incarnation
)

type flight struct {
	src, dst, tag int // tag < 0: a control message; tag 0: application
	w0, w1        uint64
	pb            Piggyback
	epoch         int // the sender's epoch at send time
}

type world struct {
	ms        [2]machine
	net       []flight
	sends     [2]int
	colls     int
	committed int // -1: none in this history
	restored  bool
	initiated bool // the incarnation's one global checkpoint has been started
	// early[r][e]: the early-message IDs rank r's checkpoint of epoch e
	// recorded, by sender — what a rollback to e restores and suppresses.
	early [2][exploreEpochs + 1][][]uint32
	// started and ended count, per target epoch of this incarnation, the
	// global checkpoints begun and those that ended in a commit or a give-up.
	started, ended [exploreEpochs + 1]int
}

// cloneMachine deep-copies what a transition writes in place: the counts,
// in one allocation, and the outer early-ID slice. An inner one is shared
// with no spare capacity, so an append to either copy reallocates.
func cloneMachine(m machine) machine {
	c := m
	n := len(m.sendCount)
	counts := make([]int64, 4*n)
	c.sendCount, c.currentReceiveCount = counts[:n:n], counts[n:2*n:2*n]
	c.previousReceiveCount, c.totalSent = counts[2*n:3*n:3*n], counts[3*n:]
	copy(c.sendCount, m.sendCount)
	copy(c.currentReceiveCount, m.currentReceiveCount)
	copy(c.previousReceiveCount, m.previousReceiveCount)
	copy(c.totalSent, m.totalSent)
	c.earlyIDs = make([][]uint32, n)
	for p, ids := range m.earlyIDs {
		c.earlyIDs[p] = slices.Clip(ids)
	}
	c.suppress = maps.Clone(m.suppress)
	c.out = nil
	return c
}

func (w *world) clone() *world {
	c := *w
	for r := range c.ms {
		c.ms[r] = cloneMachine(w.ms[r])
	}
	c.net = slices.Clone(w.net)
	return &c
}

// key appends to b an encoding of everything that decides the future
// (sincePrev does not: the model's trigger is explicit).
func (w *world) key(b []byte) []byte {
	put := func(v int64) { b = binary.AppendVarint(b, v) }
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	for _, m := range w.ms {
		for _, v := range []int{m.epoch, int(m.nextMessageID), m.requestedEpoch, m.suppressPending, m.init.target, m.init.ready, m.init.stopped} {
			put(int64(v))
		}
		for _, v := range []bool{m.amLogging, m.readySent, m.checkpointRequested, m.logDone, m.flushing, m.stopSent, m.finished, m.init.inProgress, m.init.closed} {
			flag(v)
		}
		for p := range m.sendCount {
			put(m.sendCount[p])
			put(m.currentReceiveCount[p])
			put(m.previousReceiveCount[p])
			put(m.totalSent[p])
			put(int64(len(m.earlyIDs[p])))
			for _, id := range m.earlyIDs[p] {
				put(int64(id))
			}
		}
		for id := uint32(0); id < exploreSends; id++ {
			flag(m.suppress[id])
		}
	}
	// Only each channel's order matters: MPI orders a channel, not the net.
	net := w.net
	if len(net) > 1 {
		net = slices.Clone(net)
		slices.SortStableFunc(net, func(f, g flight) int { return (f.src-g.src)*64 + (f.dst-g.dst)*32 + f.tag - g.tag })
	}
	for _, f := range net {
		for _, v := range []int64{int64(f.src), int64(f.dst), int64(f.tag), int64(f.w0), int64(f.w1), int64(f.pb.Pack()), int64(f.epoch)} {
			put(v)
		}
	}
	put(-1)
	for _, v := range []int{w.sends[0], w.sends[1], w.colls, w.committed} {
		put(int64(v))
	}
	flag(w.restored)
	flag(w.initiated)
	for e := range w.started {
		put(int64(w.started[e]))
		put(int64(w.ended[e]))
	}
	for r := range w.early {
		for e := range w.early[r] {
			put(int64(len(w.early[r][e])))
			for _, ids := range w.early[r][e] {
				put(int64(len(ids)))
				for _, id := range ids {
					put(int64(id))
				}
			}
		}
	}
	return b
}

// explorer walks the worlds reachable from the start and fails the test at
// the first broken property.
type explorer struct {
	t       *testing.T
	seen    map[uint64]bool // hashes of the keys of the worlds visited
	seed    maphash.Seed
	buf     []byte
	commits int // transitions that committed, over all paths
	classes [3]int
	// verdicts counts the logging participants' collective verdicts: not
	// logged (re-executed on recovery), and logged.
	verdicts [2]int
}

func (x *explorer) fail(w *world, format string, args ...any) {
	x.t.Helper()
	x.t.Fatalf("epochs %d/%d, logging %v/%v, in flight %+v: "+format,
		append([]any{w.ms[0].epoch, w.ms[1].epoch, w.ms[0].amLogging, w.ms[1].amLogging, w.net}, args...)...)
}

// settle runs the actions rank r's last transition queued and checks the
// properties that hold at every step.
func (x *explorer) settle(w *world, r int, was initiatorState) {
	m := &w.ms[r]
	for _, a := range m.out {
		switch a.kind {
		case actSend:
			for q := range w.ms {
				if a.dst == q || a.dst == everyRank {
					w.net = append(w.net, flight{src: r, dst: q, tag: a.tag, w0: a.words[0], w1: a.words[1]})
				}
			}
		case actCommit:
			e := int(a.words[0])
			for q, mq := range w.ms {
				if mq.epoch != e || !mq.logDone || mq.flushing || !mq.stopSent {
					x.fail(w, "commit of epoch %d before rank %d reported its log and state durable", e, q)
				}
			}
			w.committed = e
			w.ended[e]++
			x.commits++
		}
	}
	m.out = m.out[:0]
	if r == 0 {
		now := w.ms[0].init
		if now.inProgress && !was.inProgress {
			w.started[now.target]++
		}
		if was.inProgress && !now.inProgress && now.closed && w.committed != was.target {
			w.ended[was.target]++ // given up
		}
	}
	for e, n := range w.ended {
		if n > 1 || n > w.started[e] {
			x.fail(w, "global checkpoint %d ended %d times after %d starts", e, n, w.started[e])
		}
	}
	if err := m.verify(); err != nil {
		x.fail(w, "%v", err)
	}
	if d := w.ms[0].epoch - w.ms[1].epoch; d > 1 || d < -1 {
		x.fail(w, "epoch skew %d", d)
	}
}

// step applies one event to a copy of w on rank r.
func (x *explorer) step(w *world, r int, event func(w *world, m *machine)) {
	n := w.clone()
	was := n.ms[0].init
	event(n, &n.ms[r])
	x.settle(n, r, was)
	x.visit(n)
}

func (x *explorer) visit(w *world) {
	x.buf = w.key(x.buf[:0])
	k := maphash.Bytes(x.seed, x.buf)
	if x.seen[k] {
		return
	}
	x.seen[k] = true
	enabled := false
	for r := range w.ms {
		m := &w.ms[r]
		if !m.finished {
			enabled = true
			x.step(w, r, func(w *world, m *machine) { m.finish() })
			if w.sends[r] < exploreSends {
				x.step(w, r, func(w *world, m *machine) {
					w.sends[r]++
					if pb, suppressed := m.appSend(1 - r); !suppressed {
						w.net = append(w.net, flight{src: r, dst: 1 - r, pb: pb, epoch: m.epoch})
					}
				})
			}
			if m.checkpointRequested && m.suppressPending == 0 {
				x.step(w, r, func(w *world, m *machine) {
					w.early[r][m.epoch+1] = slices.Clone(m.earlyIDs)
					m.potential()
					m.checkpoint()
				})
			}
			if m.canInitiate() && !w.initiated {
				x.step(w, r, func(w *world, m *machine) { w.initiated = m.initiate(true) })
			}
		}
		if m.flushing {
			enabled = true
			x.step(w, r, func(w *world, m *machine) { m.flushed() })
		}
	}
	for i, f := range w.net {
		if w.ms[f.dst].finished && f.tag == 0 || slices.ContainsFunc(w.net[:i], func(g flight) bool {
			return g.src == f.src && g.dst == f.dst && g.tag == f.tag
		}) {
			continue // a returned program receives nothing; MPI does not overtake
		}
		enabled = true
		x.step(w, f.dst, func(w *world, m *machine) {
			w.net = slices.Delete(w.net, i, i+1)
			if f.tag < 0 {
				m.control(f.src, f.tag, f.w0, f.w1)
				return
			}
			truth := Intra
			switch {
			case f.epoch < m.epoch:
				truth = Late
			case f.epoch > m.epoch:
				truth = Early
				if m.amLogging {
					x.fail(w, "an early message reaches logging rank %d", f.dst)
				}
			}
			if got := m.appReceive(f.src, f.pb); got != truth {
				x.fail(w, "a message sent in epoch %d to a rank in epoch %d classified %v, want %v", f.epoch, m.epoch, got, truth)
			}
			x.classes[truth]++
		})
	}
	if w.colls < exploreColls && !w.ms[0].finished && !w.ms[1].finished {
		// The collective's presence set, taken from both ranks at once and
		// applied on each.
		x.step(w, 0, func(w *world, _ *machine) {
			w.colls++
			seen := uint32(1)<<w.ms[0].ctlState() | 1<<w.ms[1].ctlState()
			logging := [2]bool{w.ms[0].amLogging, w.ms[1].amLogging}
			var logs [2]bool
			logs[1] = w.ms[1].collective(seen)
			x.settle(w, 1, w.ms[0].init)
			logs[0] = w.ms[0].collective(seen)
			x.checkVerdicts(w, seen, logging, logs)
		})
	}
	if !w.restored && w.committed >= 1 {
		x.step(w, 0, func(w *world, _ *machine) { w.rollback() })
	}
	if !enabled && w.ms[0].init.inProgress {
		x.fail(w, "every rank is done and global checkpoint %d never ended", w.ms[0].init.target)
	}
	if !enabled {
		for e, n := range w.started {
			if w.ended[e] != n {
				x.fail(w, "global checkpoint %d started %d times, ended %d", e, n, w.ended[e])
			}
		}
	}
}

// checkVerdicts holds a collective's logging verdicts to Section 4.5, with
// the ranks' epochs as the truth: the participants that entered it logging
// agree; a participant logs only while logging, and only a call that an
// older epoch's participant (one of the other color in seen) executed
// before its local checkpoint, which that participant will not re-execute
// on recovery; and a participant still logging after such a call logs it.
func (x *explorer) checkVerdicts(w *world, seen uint32, logging, logs [2]bool) {
	x.t.Helper()
	if logging[0] && logging[1] && logs[0] != logs[1] {
		x.fail(w, "logging participants disagree on logging the collective: %v", logs)
	}
	for r, m := range w.ms {
		switch {
		case logs[r]:
			x.verdicts[1]++
		case logging[r]:
			x.verdicts[0]++
		}
		other := w.ms[1-r]
		crosses := other.epoch < m.epoch
		if logs[r] && (!logging[r] || !crosses || !otherColorIn(seen, m.ctlState()&ctlColorBit)) {
			x.fail(w, "rank %d (logging %v) logs a collective with rank %d in epoch %d, presence set %#x", r, logging[r], 1-r, other.epoch, seen)
		}
		if m.amLogging && crosses && !logs[r] {
			x.fail(w, "rank %d logs no collective that rank %d executed in the older epoch %d", r, 1-r, other.epoch)
		}
	}
}

// ctlStateMask covers every control state a presence set has a bit for.
const ctlStateMask = ctlColorBit | ctlLoggingBit | ctlReadyBit

// otherColorIn reports whether the presence set holds a state whose color
// bit is not color.
func otherColorIn(seen, color uint32) bool {
	for s := uint32(0); s <= ctlStateMask; s++ {
		if seen&(1<<s) != 0 && s&ctlColorBit != color {
			return true
		}
	}
	return false
}

// rollback restarts both ranks from the committed epoch, as the supervisor
// does after a death: what was in flight is lost, and each sender is handed
// the IDs its receivers recorded as early.
func (w *world) rollback() {
	w.restored, w.initiated, w.net, w.sends, w.colls = true, false, nil, [2]int{}, 0
	w.started, w.ended = [exploreEpochs + 1]int{}, [exploreEpochs + 1]int{}
	early := w.early
	w.early = [2][exploreEpochs + 1][][]uint32{}
	for r := range w.ms {
		w.ms[r] = newMachine(r, 2, 0, r == 0)
		var suppress []uint32
		for q := range w.ms {
			suppress = append(suppress, early[q][w.committed][r]...)
		}
		w.ms[r].restore(w.committed, early[r][w.committed], suppress)
	}
}

func TestMachineExhaustive(t *testing.T) {
	x := &explorer{t: t, seen: map[uint64]bool{}, seed: maphash.MakeSeed()}
	w := &world{committed: -1}
	for r := range w.ms {
		w.ms[r] = newMachine(r, 2, 0, r == 0)
	}
	x.visit(w)
	t.Logf("%d states, %d commits; messages delivered intra/late/early: %v; logging participants' collectives re-executed/logged: %v", len(x.seen), x.commits, x.classes, x.verdicts)
	if x.commits == 0 || x.classes[Late] == 0 || x.classes[Early] == 0 {
		t.Fatalf("the exploration never committed, or never delivered a late or an early message: %d commits, %v", x.commits, x.classes)
	}
	if x.verdicts[0] == 0 || x.verdicts[1] == 0 {
		t.Fatalf("the exploration never met a logging participant's collective of both verdicts (re-executed/logged: %v)", x.verdicts)
	}
}
