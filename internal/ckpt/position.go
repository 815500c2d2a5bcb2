// Package ckpt implements the application state-saving runtime that the
// CCIFT precompiler targets (Section 5.1 of the paper): the Position Stack
// (PS) that records where in the dynamic execution a checkpoint was taken,
// the Variable Descriptor Stack (VDS) that records which variables are live
// and where their values go, and the Heap Object Structure (HOS) managed by
// the library's own heap manager.
//
// C3 saves the raw bytes of stack frames because, in C, restored variables
// must land at the same virtual addresses. Go forbids that, so the VDS holds
// typed pointers registered by (pre-compiled or hand-instrumented) code and
// serializes the pointed-to values instead; restoring writes the saved value
// back through the registered pointer. The observable contract is identical:
// after restart every registered variable has the value it had at the
// checkpoint, and the PS tells each function which label to jump to.
package ckpt

import "fmt"

// PositionStack records a trace of the program's execution: one label per
// active checkpointable call, with the innermost entry naming the
// PotentialCheckpoint site itself (paper Figure 6). During normal execution
// instrumented code pushes a label before each checkpointable call and pops
// it afterwards. After a restart, each function consults the stack (via
// Resume) to find which label to jump to, rebuilding the activation stack.
type PositionStack struct {
	labels []int
	// resume holds the saved trace while a restart is in progress; cursor
	// walks it outermost-first as each function re-enters.
	resume []int
	cursor int
}

// NewPositionStack returns an empty position stack.
func NewPositionStack() *PositionStack { return &PositionStack{} }

// Push records entry into checkpointable call site label. A label is not
// negative: the trace stores labels as uvarints.
func (ps *PositionStack) Push(label int) {
	if label < 0 {
		panic(fmt.Sprintf("ckpt: PositionStack.Push of negative label %d", label))
	}
	ps.labels = append(ps.labels, label)
}

// Pop records return from the most recent checkpointable call site.
func (ps *PositionStack) Pop() {
	if len(ps.labels) == 0 {
		panic("ckpt: PositionStack.Pop on empty stack")
	}
	ps.labels = ps.labels[:len(ps.labels)-1]
}

// Depth reports the number of active labels.
func (ps *PositionStack) Depth() int { return len(ps.labels) }

// Snapshot returns a copy of the current trace for inclusion in a
// checkpoint.
func (ps *PositionStack) Snapshot() []int {
	out := make([]int, len(ps.labels))
	copy(out, ps.labels)
	return out
}

// StartResume installs a saved trace and arms the resume cursor. It is
// called by the restart machinery before the application function is
// re-invoked.
func (ps *PositionStack) StartResume(trace []int) {
	ps.resume = append([]int(nil), trace...)
	ps.cursor = 0
	ps.labels = ps.labels[:0]
}

// Resuming reports whether a resume is in progress, i.e. whether the
// current function should dispatch on Resume() rather than executing from
// its beginning.
func (ps *PositionStack) Resuming() bool { return ps.resume != nil && ps.cursor < len(ps.resume) }

// Resume pops the next saved label (outermost first). The instrumented
// function jumps to the returned label; the label is simultaneously
// re-pushed so that the live stack mirrors the saved one.
func (ps *PositionStack) Resume() int {
	if !ps.Resuming() {
		panic("ckpt: Resume called with no pending resume trace")
	}
	l := ps.resume[ps.cursor]
	ps.cursor++
	ps.labels = append(ps.labels, l)
	if ps.cursor == len(ps.resume) {
		// The trace is exhausted: the innermost label has been reached and
		// normal execution resumes after the PotentialCheckpoint site.
		ps.resume = nil
	}
	return l
}

// AtCheckpointSite reports whether the resume cursor has reached the
// innermost saved label, i.e. execution is about to resume immediately
// after the PotentialCheckpoint call that took the checkpoint.
func (ps *PositionStack) AtCheckpointSite() bool {
	return ps.resume != nil && ps.cursor == len(ps.resume)-1
}

func (ps *PositionStack) String() string {
	return fmt.Sprintf("PS%v", ps.labels)
}
