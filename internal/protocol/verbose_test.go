package protocol

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// The unoptimized piggyback of Section 4.2: "A simple implementation of
// the protocol can piggyback all three values — epoch, amLogging,
// nextMessageID — on each message." The layer's wire format uses the
// optimized single integer (Piggyback); this verbose form exists to make
// the paper's optimization argument executable: because at most one global
// checkpoint is in progress, epochs differ by at most one, so the epoch's
// parity (color) plus the receiver's amLogging flag recover the full
// classification. TestVerboseCompactAgree cross-checks the two codecs over
// the protocol's reachable state space.

// VerbosePiggyback carries the full epoch number.
type VerbosePiggyback struct {
	// Epoch is the sender's epoch at send time.
	Epoch int
	// Logging is the sender's amLogging flag.
	Logging bool
	// MessageID is the sender's per-epoch message sequence number.
	MessageID uint32
}

// verboseBytes is the verbose wire size: 8 (epoch) + 1 (flag) + 4 (ID) —
// more than three times the optimized encoding's 4 bytes.
const verboseBytes = 13

// Encode serializes the verbose triple.
func (p VerbosePiggyback) Encode() []byte {
	out := make([]byte, verboseBytes)
	binary.LittleEndian.PutUint64(out, uint64(p.Epoch))
	if p.Logging {
		out[8] = 1
	}
	binary.LittleEndian.PutUint32(out[9:], p.MessageID)
	return out
}

// DecodeVerbosePiggyback parses the verbose wire form.
func DecodeVerbosePiggyback(b []byte) VerbosePiggyback {
	return VerbosePiggyback{
		Epoch:     int(binary.LittleEndian.Uint64(b)),
		Logging:   b[8] != 0,
		MessageID: binary.LittleEndian.Uint32(b[9:]),
	}
}

// Compact converts the verbose triple to the optimized single-integer
// form: the epoch collapses to its parity.
func (p VerbosePiggyback) Compact() Piggyback {
	return Piggyback{Color: p.Epoch%2 == 1, Logging: p.Logging, MessageID: p.MessageID}
}

// ClassifyVerbose is Definition 1 applied directly to epoch numbers: late
// if the sender's epoch is behind the receiver's, early if ahead,
// intra-epoch if equal. It needs no amLogging disambiguation — that flag
// is only required once epochs are compressed to one bit.
func ClassifyVerbose(senderEpoch, receiverEpoch int) Class {
	switch {
	case senderEpoch < receiverEpoch:
		return Late
	case senderEpoch > receiverEpoch:
		return Early
	default:
		return Intra
	}
}

func TestVerboseEncodeRoundTrip(t *testing.T) {
	f := func(epoch uint16, logging bool, id uint32) bool {
		p := VerbosePiggyback{Epoch: int(epoch), Logging: logging, MessageID: id}
		q := DecodeVerbosePiggyback(p.Encode())
		return q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVerboseCompactAgree executes the Section 4.2 optimization argument:
// over every state the protocol can reach — epochs differing by at most
// one, and a receiver that is logging exactly when it is one epoch ahead
// with the previous checkpoint's logging phase unfinished — the one-bit
// color classification agrees with the full-epoch classification.
func TestVerboseCompactAgree(t *testing.T) {
	for senderEpoch := 0; senderEpoch <= 6; senderEpoch++ {
		for d := -1; d <= 1; d++ {
			receiverEpoch := senderEpoch + d
			if receiverEpoch < 0 {
				continue
			}
			want := ClassifyVerbose(senderEpoch, receiverEpoch)
			// The receiver's amLogging flag is constrained by the protocol:
			// a late message implies the receiver checkpointed after the
			// sender sent (receiver ahead) and is still collecting the old
			// epoch's messages — it must be logging. An early message
			// implies the receiver has not reached the checkpoint the
			// sender already took — the receiver cannot be logging for it.
			// Intra-epoch messages occur in both receiver states.
			var loggingStates []bool
			switch want {
			case Late:
				loggingStates = []bool{true}
			case Early:
				loggingStates = []bool{false}
			default:
				loggingStates = []bool{false, true}
			}
			for _, logging := range loggingStates {
				sender := VerbosePiggyback{Epoch: senderEpoch}.Compact()
				receiverColor := receiverEpoch%2 == 1
				got := Classify(sender, receiverColor, logging)
				if got != want {
					t.Fatalf("sender epoch %d, receiver epoch %d (logging=%v): compact=%v, verbose=%v",
						senderEpoch, receiverEpoch, logging, got, want)
				}
			}
		}
	}
}

func TestVerboseCostComparison(t *testing.T) {
	// The optimization's point: 13 bytes down to 4.
	p := VerbosePiggyback{Epoch: 3, Logging: true, MessageID: 99}
	if len(p.Encode()) != verboseBytes {
		t.Fatalf("verbose encoding is %d bytes", len(p.Encode()))
	}
	if verboseBytes <= pbBytes {
		t.Fatal("the verbose form should cost more than the packed form")
	}
	if p.Compact().MessageID != 99 || !p.Compact().Logging || !p.Compact().Color {
		t.Fatalf("compact conversion lost fields: %+v", p.Compact())
	}
}
