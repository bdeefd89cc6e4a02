package invariant

import (
	"strings"
	"testing"

	"eleos/internal/addr"
)

// readStore serves fixed read results; checkPage needs nothing else.
type readStore struct {
	Store
	data map[addr.LPID][]byte
}

func (s readStore) Read(lpid addr.LPID) ([]byte, error) { return s.data[lpid], nil }

// TestCheckPageExplainsDifference pins the content violation's detail:
// where the read first departs from the acknowledged bytes, how much of
// it is zeros, and the wanted against the stored length.
func TestCheckPageExplainsDifference(t *testing.T) {
	want := []byte("acknowledged page content")
	stored := make([]byte, addr.AlignUp(len(want)))
	copy(stored, want[:5]) // the rest reads back as erased zeros
	msg := checkPage(readStore{data: map[addr.LPID][]byte{7: stored}}, Page{LPID: 7, Want: want})
	for _, part := range []string{
		"Read(7) differs from acknowledged version",
		"first difference at offset 5",
		"92.2% of the read is zero bytes",
		"want 25 bytes, stored 64",
	} {
		if !strings.Contains(msg, part) {
			t.Fatalf("message %q lacks %q", msg, part)
		}
	}
	ok := make([]byte, addr.AlignUp(len(want)))
	copy(ok, want)
	if msg := checkPage(readStore{data: map[addr.LPID][]byte{7: ok}}, Page{LPID: 7, Want: want}); msg != "" {
		t.Fatalf("matching page reported: %s", msg)
	}
}
