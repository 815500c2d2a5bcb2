package protocol

// Non-deterministic event logging (Section 3.2): if a global checkpoint
// depends on a non-deterministic event — a random number a process
// generated and sent to a peer that then checkpointed, say — that event
// must re-occur identically after restart. Applications therefore draw all
// non-determinism through the layer: while logging, outcomes are recorded;
// during recovery, recorded outcomes are replayed in order.

// NondetBytes routes one non-deterministic decision through the layer. gen
// produces the value when no logged outcome pins it.
func (l *Layer) NondetBytes(gen func() []byte) []byte {
	if !l.active() {
		return gen()
	}
	l.enterOp()
	seq := l.eventSeq
	l.eventSeq++
	if l.replay != nil {
		if e := l.replay.Event(seq); e != nil {
			return append([]byte(nil), e.Data...)
		}
	}
	v := gen()
	if l.m.amLogging {
		cp := make([]byte, len(v))
		copy(cp, v)
		l.log.Add(Entry{Kind: KindEvent, Seq: seq, Data: cp})
		l.Stats.EventsLogged++
	}
	return v
}
