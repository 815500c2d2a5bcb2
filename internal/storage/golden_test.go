package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// A chunk manifest is stored data: it is the one format a state key holds,
// read back by a replacement process, possibly one built later. These bytes
// were taken from the hand-written encoder, before the manifest became a
// layout of the shared record codec; any change to the format changes them.
func TestManifestBytesAreGolden(t *testing.T) {
	refs := []ChunkRef{
		{Sum: sha256.Sum256([]byte("a")), Len: 256 << 10},
		{Sum: sha256.Sum256([]byte("b")), Len: 7},
		{Sum: sha256.Sum256([]byte("c")), Len: 100_000},
	}
	for _, c := range []struct {
		refs []ChunkRef
		want string
	}{
		{nil, "4333434d3030303100"},
		{refs, "4333434d30303031" + "03" +
			"808010" + "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb" +
			"07" + "3e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d" +
			"a08d06" + "2e7d2c03a9507ae265ecf5b5356885a53393a2029d241394997265a1a25aefc6"},
	} {
		if got := hex.EncodeToString(marshalManifest(c.refs)); got != c.want {
			t.Errorf("marshalManifest of %d refs wrote\n%s\nwant\n%s", len(c.refs), got, c.want)
		}
	}
}
