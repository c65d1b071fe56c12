package journal

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenJournal is a journal holding a 1-D and a 3-D record, byte for byte:
// the header, then one [u32 len][u32 crc32][payload] frame per record, each
// payload u8 dims, the point and the value as little-endian float64s.
const goldenJournal = `
4a514c4d 01000000
11000000 1c79fffe 01 000000000000e03f 0000000000000040
21000000 a46647f9 03 000000000000d03f 000000000000f0bf 0000000000000840 0000000080842e41
`

// TestJournalBytesGolden pins the on-disk journal format: a journal that
// replays today must be written the same way tomorrow.
func TestJournalBytesGolden(t *testing.T) {
	j := tmpJournal(t)
	if err := j.Append([]float64{0.5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]float64{0.25, -1, 3}, 1e6); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(goldenJournal), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes drifted:\n got %x\nwant %x", got, want)
	}
}
