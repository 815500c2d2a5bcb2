package protocol

import (
	"encoding/hex"
	"testing"
)

// The log is stored data: a local checkpoint's log is read back by a
// replacement process, possibly one built later. These bytes were taken
// from the hand-written encoder, before the log became a layout of the
// shared record codec; any change to the format changes them.
func TestLogBytesAreGolden(t *testing.T) {
	l := NewLog()
	l.Add(Entry{Kind: KindLate, Seq: 0, Src: 2, Tag: 7, Data: []byte("late")})
	l.Add(Entry{Kind: KindWildcard, Seq: 1 << 40, Src: -1, Tag: -1})
	l.Add(Entry{Kind: KindCollective, Seq: 3, Src: -1, Tag: -1, Data: []byte{0, 0xff}})
	l.Add(Entry{Kind: KindEvent, Seq: 5, Data: []byte{9}})
	const want = "04" +
		"0100040904" + "6c617465" +
		"02808080808020010100" +
		"0303010102" + "00ff" +
		"040502020109"
	if got := hex.EncodeToString(l.Marshal()); got != want {
		t.Fatalf("Log.Marshal wrote\n%s\nwant\n%s", got, want)
	}
}
