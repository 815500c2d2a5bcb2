package protocol

import (
	"testing"
	"testing/quick"
)

func TestPiggybackPackRoundTrip(t *testing.T) {
	f := func(color, logging bool, id uint32) bool {
		p := Piggyback{Color: color, Logging: logging, MessageID: id & pbIDMask}
		return UnpackPiggyback(p.Pack()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPiggybackSingleInteger(t *testing.T) {
	// Section 4.2's optimization: the whole piggyback fits in one 32-bit
	// integer, with 30 bits of message ID.
	p := Piggyback{Color: true, Logging: true, MessageID: (1 << 30) - 1}
	if got := UnpackPiggyback(p.Pack()); got != p {
		t.Fatalf("got %+v want %+v", got, p)
	}
	if pbBytes != 4 {
		t.Fatalf("piggyback is %d bytes, want 4", pbBytes)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name            string
		senderColor     bool
		senderLogging   bool
		receiverColor   bool
		receiverLogging bool
		want            Class
	}{
		{"same epoch", false, false, false, false, Intra},
		{"same epoch both logging", true, true, true, true, Intra},
		// Sender behind (old epoch), receiver checkpointed and logging:
		// the message crossed the recovery line forward.
		{"late", false, false, true, true, Late},
		// Sender ahead (new epoch), receiver not yet checkpointed.
		{"early", true, true, false, false, Early},
	}
	for _, c := range cases {
		got := Classify(Piggyback{Color: c.senderColor, Logging: c.senderLogging}, c.receiverColor, c.receiverLogging)
		if got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyProperty(t *testing.T) {
	// Color equality always means intra-epoch, regardless of flags.
	f := func(color, senderLogging, recvLogging bool) bool {
		return Classify(Piggyback{Color: color, Logging: senderLogging}, color, recvLogging) == Intra
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if Intra.String() != "intra-epoch" || Late.String() != "late" || Early.String() != "early" {
		t.Fatal("class names")
	}
}
