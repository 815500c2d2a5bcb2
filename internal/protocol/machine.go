package protocol

import (
	"fmt"
	"math"
)

// machine is Figure 4 of the paper: one process's protocol variables, the
// initiator's coordination state, and every transition between them. Each
// method is an event in — an application send, a classified receive, a
// control message, a collective's presence set, a potential checkpoint or a
// due trigger, a durable flush, the program's return, a rollback — and what
// the process must do about it is queued on out. It does no I/O, reads no
// clock and starts no goroutine, and a send or a receive allocates nothing.
// Layer is its shell: it feeds it the substrate's events and runs the
// queued actions in order (Layer.act). It is a value, so a test can copy it
// (deep-copying the slices) to explore schedules.
type machine struct {
	rank, size int
	everyN     int // the initiator's trigger: every N-th PotentialCheckpoint; 0 disables

	epoch                int
	amLogging            bool
	readySent            bool // logging, and readyToStopLogging sent for this epoch
	nextMessageID        uint32
	checkpointRequested  bool
	requestedEpoch       int
	sendCount            []int64
	earlyIDs             [][]uint32
	currentReceiveCount  []int64
	previousReceiveCount []int64
	totalSent            []int64 // -1 = unknown (⊥)

	// The local checkpoint's halves (the log written, the state flushed)
	// and the stoppedLogging report that both are durable.
	logDone, flushing, stopSent bool
	finished                    bool // the program on this rank has returned
	// suppress holds the IDs of this rank's messages its receivers recorded
	// as early before the checkpoint recovery rolled back to: a re-send would
	// duplicate them (Section 3.2). suppressPending counts those not re-run.
	suppress        map[uint32]bool
	suppressPending int

	initiator bool // rank 0 in a mode that checkpoints
	init      initiatorState

	out   []action
	fault string // the first impossible event met (see verify)
}

// initiatorState is the initiator's four control phases of the global
// checkpoint in progress.
type initiatorState struct {
	inProgress bool
	// closed: some rank's program has returned, so no further checkpoint
	// could complete and none is started.
	closed                 bool
	target, ready, stopped int
	sincePrev              int64 // PotentialCheckpoint calls since the last initiation
}

// action is one effect a transition queues for the shell.
type action struct {
	kind     actionKind
	dst, tag int // actSend: to dst, or to every rank in order when everyRank
	words    [2]uint64
	n        int // words in use
}

type actionKind uint8

const (
	actSend        actionKind = iota + 1 // send the control words
	actFinalizeLog                       // write the log of the phase just ended
	actCommit                            // commit epoch words[0], prune below it
)

const everyRank = -1

func newMachine(rank, size, everyN int, initiator bool) machine {
	m := machine{
		rank: rank, size: size, everyN: everyN, initiator: initiator,
		sendCount:            make([]int64, size),
		earlyIDs:             make([][]uint32, size),
		currentReceiveCount:  make([]int64, size),
		previousReceiveCount: make([]int64, size),
		totalSent:            make([]int64, size),
	}
	for p := range m.totalSent {
		m.totalSent[p] = -1
	}
	return m
}

func (m *machine) color() bool { return m.epoch%2 == 1 }

func (m *machine) ctl(dst, tag int, words ...uint64) {
	a := action{kind: actSend, dst: dst, tag: tag, n: len(words)}
	copy(a.words[:], words)
	m.out = append(m.out, a)
}

// impossible records an event the protocol's ordering rules exclude.
func (m *machine) impossible(format string, args ...any) {
	if m.fault == "" {
		m.fault = fmt.Sprintf(format, args...)
	}
}

// verify is the invariant check the shell runs under Debug after every
// transition: no impossible event (a control message naming an epoch no
// peer can have sent, a coordination message at a non-initiator), and no
// peer that sent fewer messages than this logging rank counted from it.
// Figure 3's classes need no check here: the exhaustive test proves color
// and amLogging agree with the epochs.
func (m *machine) verify() error {
	if m.fault != "" {
		return fmt.Errorf("protocol: rank %d: %s", m.rank, m.fault)
	}
	for p, sent := range m.totalSent {
		if got := m.previousReceiveCount[p]; m.amLogging && sent >= 0 && got > sent {
			return fmt.Errorf("protocol: rank %d received %d late/intra messages from %d but only %d were sent", m.rank, got, p, sent)
		}
	}
	return nil
}

// appSend numbers an application send to dst. suppressed reports a message
// its destination already holds: it is not sent again, but its ID and count
// are consumed, so the books match the original execution.
func (m *machine) appSend(dst int) (pb Piggyback, suppressed bool) {
	id := m.nextMessageID
	m.nextMessageID++
	m.sendCount[dst]++
	if m.suppress[id] {
		delete(m.suppress, id)
		m.suppressPending--
		return Piggyback{MessageID: id}, true
	}
	return Piggyback{Color: m.color(), Logging: m.amLogging, MessageID: id}, false
}

// appReceive classifies an application message from src (Section 4.2) and
// keeps the books on it. A logging receiver that meets an intra-epoch
// sender that has stopped logging stops too, before the program sees the
// message: every process has checkpointed, and what it logs from here on
// could depend on unlogged non-determinism (Phase 4).
func (m *machine) appReceive(src int, pb Piggyback) Class {
	c := Classify(pb, m.color(), m.amLogging)
	switch c {
	case Early:
		m.earlyIDs[src] = append(m.earlyIDs[src], pb.MessageID)
	case Intra:
		if m.amLogging && !pb.Logging {
			m.finalizeLog()
		}
		m.currentReceiveCount[src]++
	case Late:
		m.previousReceiveCount[src]++
		m.receivedAll()
	}
	return c
}

// control handles a control message from src with words w0 and w1. Its
// first word names an epoch, and one outside epochRange is an event the
// protocol's ordering rules exclude.
func (m *machine) control(src, tag int, w0, w1 uint64) {
	epoch := int(w0)
	if lo, hi := m.epochRange(tag); epoch < lo || epoch > hi {
		m.impossible("control message %d from rank %d names epoch %d, outside [%d, %d] in epoch %d", tag, src, epoch, lo, hi, m.epoch)
		return
	}
	switch tag {
	case tagPleaseCheckpoint:
		if epoch > m.epoch && epoch > m.requestedEpoch {
			m.checkpointRequested, m.requestedEpoch = true, epoch
			if m.finished {
				m.decline(epoch)
			}
		}
	case tagMySendCount:
		m.totalSent[src] = int64(w1)
		if m.amLogging {
			m.receivedAll()
		}
	case tagStopLogging:
		if epoch == m.epoch && m.amLogging {
			m.finalizeLog()
		}
	case tagReadyToStop, tagStoppedLogging, tagCannotCheckpoint:
		if epoch == m.init.target && m.init.inProgress {
			m.coordinate(tag)
		}
	}
}

// epochRange is the range of epochs a control message of tag can name when
// it reaches this rank; every epoch one names is at least 1. The initiator
// asks for the checkpoint after the one every rank has taken, so a target
// is at most one past this rank's epoch. A send count is of the sender's
// previous epoch, for this rank's logging phase of checkpoint `epoch`: the
// rank is in it (logging) or one behind (not checkpointed yet). Logging is
// ordered to stop only in an epoch every rank has reached. The reports of
// the control phases go to the initiator alone: the range is empty on any
// other rank.
func (m *machine) epochRange(tag int) (lo, hi int) {
	switch tag {
	case tagPleaseCheckpoint:
		return 1, m.epoch + 1
	case tagMySendCount:
		return m.epoch, m.epoch + 1
	case tagStopLogging:
		return 1, m.epoch
	}
	if !m.initiator {
		return 1, 0
	}
	return 1, math.MaxInt
}

// coordinate is the initiator's side of the control phases of the global
// checkpoint in progress.
func (m *machine) coordinate(tag int) {
	switch tag {
	case tagReadyToStop:
		// Phase 3: once every process has taken its local checkpoint no
		// message can be early, so logging may stop.
		if m.init.ready++; m.init.ready == m.size {
			m.ctl(everyRank, tagStopLogging, uint64(m.init.target))
		}
	case tagStoppedLogging:
		// Phase 4: every rank's log and state are durable.
		if m.init.stopped++; m.init.stopped == m.size {
			m.init.inProgress = false
			m.out = append(m.out, action{kind: actCommit, words: [2]uint64{uint64(m.init.target)}, n: 1})
		}
	case tagCannotCheckpoint:
		// A rank's program returned before it could do its part and it will
		// take part in no other checkpoint: give this one up, start none.
		m.init.inProgress, m.init.closed = false, true
	}
}

// receivedAll is receivedAll?(): once every late message of the previous
// epoch is in, tell the initiator this rank is ready to stop logging. A
// finished rank short of a count it knows never will be, and declines.
func (m *machine) receivedAll() {
	for p, got := range m.previousReceiveCount {
		if got != m.totalSent[p] {
			if m.finished && m.totalSent[p] >= 0 {
				m.decline(m.epoch)
			}
			return
		}
	}
	m.ctl(0, tagReadyToStop, uint64(m.epoch))
	m.readySent = true
	for p := range m.totalSent {
		m.totalSent[p] = -1
	}
}

// finalizeLog is finalizeLog(): stop logging and have the log written.
func (m *machine) finalizeLog() {
	m.amLogging, m.logDone = false, true
	m.out = append(m.out, action{kind: actFinalizeLog})
	m.reportStopped()
}

// flushed is the event that this epoch's state flush is durable.
func (m *machine) flushed() {
	m.flushing = false
	m.reportStopped()
}

// reportStopped sends stoppedLogging once per checkpoint, when both halves
// are durable: the commit record waits on every rank's report, so a crash
// before it recovers from the previous committed epoch.
func (m *machine) reportStopped() {
	if m.logDone && !m.flushing && !m.stopSent {
		m.stopSent = true
		m.ctl(0, tagStoppedLogging, uint64(m.epoch))
	}
}

// decline tells the initiator that this rank's program has returned with
// its part of checkpoint epoch undone for good: the local checkpoint not
// taken, or a logging phase short of a late message it will never receive.
func (m *machine) decline(epoch int) {
	m.checkpointRequested, m.amLogging = false, false
	m.ctl(0, tagCannotCheckpoint, uint64(epoch))
}

// ctlState is this participant's bit of a collective's presence set: epoch
// color, amLogging and, while logging, whether it has reported ready.
func (m *machine) ctlState() uint32 {
	var s uint32
	if m.color() {
		s |= ctlColorBit
	}
	if m.amLogging {
		s |= ctlLoggingBit
		if m.readySent {
			s |= ctlReadyBit
		}
	}
	return s
}

// collective applies Section 4.5's rules (see collective.go) to the
// presence set of a collective's participants. It reports the verdict that
// this participant logs the call's result: it is still logging and a
// participant of the other color, one that executed the call before its
// local checkpoint, is present (Figure 5, call A). The call crosses the
// recovery line, and that participant will not re-execute it. A call whose
// participants are all in this epoch is re-executed by every one of them, so
// nobody logs it. Every logging participant sees the same set in the same
// epoch, so their verdicts agree.
func (m *machine) collective(seen uint32) (logs bool) {
	mine := uint32(m.epoch) & ctlColorBit // this participant's color bit; epochs are not negative
	// A logging participant stops if one in its (new) epoch has stopped, or
	// if every participant (a Layer collective spans the world) is logging
	// and ready: what the initiator counts messages to learn, learnt by all
	// at once, a call or two before the messages would tell them.
	if m.amLogging && (seen&(1<<mine) != 0 || seen == 1<<(mine|ctlLoggingBit|ctlReadyBit)) {
		m.finalizeLog()
	}
	otherLogging := mine ^ ctlColorBit | ctlLoggingBit
	if !m.amLogging && seen&(1<<otherLogging|1<<(otherLogging|ctlReadyBit)) != 0 {
		// A participant logs in the new epoch of a checkpoint this rank has
		// not taken: note the request (pleaseCheckpoint may be in flight).
		if m.requestedEpoch <= m.epoch {
			m.checkpointRequested, m.requestedEpoch = true, m.epoch+1
		}
	}
	// A participant of the other color, in any state ctlState gives it: not
	// logging (the old epoch's), logging, or logging and ready.
	other := uint32(1<<(mine^ctlColorBit) | 1<<otherLogging | 1<<(otherLogging|ctlReadyBit))
	return m.amLogging && seen&other != 0
}

// potential counts a PotentialCheckpoint toward the EveryN trigger.
func (m *machine) potential() {
	if m.initiator {
		m.init.sincePrev++
	}
}

// canInitiate: one global checkpoint at a time, and none that could not
// complete.
func (m *machine) canInitiate() bool {
	return m.initiator && !m.init.inProgress && !m.init.closed
}

// initiate starts a global checkpoint (Phase 1) when due — forced, or the
// shell's interval elapsed on its clock — or when EveryN is, and reports
// whether it did.
func (m *machine) initiate(due bool) bool {
	if !m.canInitiate() || !due && (m.everyN <= 0 || m.init.sincePrev < int64(m.everyN)) {
		return false
	}
	m.init = initiatorState{inProgress: true, target: m.epoch + 1}
	m.ctl(everyRank, tagPleaseCheckpoint, uint64(m.init.target))
	return true
}

// checkpoint is potentialCheckpoint(): tell every receiver how many
// messages it got from this rank in the epoch that ends, and enter the next
// one logging, with the state flush in flight. The shell captures the
// checkpoint (the early IDs of the epoch that ends among it) beforehand.
func (m *machine) checkpoint() {
	for q, n := range m.sendCount {
		m.ctl(q, tagMySendCount, uint64(m.epoch+1), uint64(n))
	}
	m.enter(m.epoch+1, m.earlyIDs, true)
	m.logDone, m.flushing, m.stopSent = false, true, false
	m.receivedAll()
}

// restore rolls the rank back to the committed checkpoint of epoch, which
// recorded early: its logging phase is over and the peers' counts are
// unknown. suppress lists this rank's messages its receivers hold.
func (m *machine) restore(epoch int, early [][]uint32, suppress []uint32) {
	m.enter(epoch, early, false)
	for p := range m.totalSent {
		m.totalSent[p] = -1
	}
	m.suppress = make(map[uint32]bool, len(suppress))
	for _, id := range suppress {
		m.suppress[id] = true
	}
	m.suppressPending = len(m.suppress)
}

// enter is the one epoch-entry transition, of a checkpoint and of a
// rollback. The early messages the checkpoint recorded were sent in the
// epoch entered and seed its receive counts; a logging phase counts the
// late messages on top of the old epoch's receives.
func (m *machine) enter(epoch int, early [][]uint32, logging bool) {
	m.epoch, m.amLogging, m.readySent = epoch, logging, false
	m.nextMessageID, m.checkpointRequested, m.requestedEpoch = 0, false, 0
	for p := range m.sendCount {
		m.previousReceiveCount[p] = 0
		if logging {
			m.previousReceiveCount[p] = m.currentReceiveCount[p]
		}
		m.currentReceiveCount[p] = int64(len(early[p]))
		m.earlyIDs[p] = nil
		m.sendCount[p] = 0
	}
	clear(m.suppress)
	m.suppressPending = 0
}

// finish is the program's return (see Layer.Finish): a checkpoint it can
// no longer do its part of is declined, and the initiator starts no other.
func (m *machine) finish() {
	m.finished = true
	if m.checkpointRequested {
		m.decline(m.requestedEpoch)
	} else if m.amLogging {
		m.receivedAll()
	}
	if m.initiator {
		m.init.closed = true
	}
}
