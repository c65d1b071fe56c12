package events

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// goldenDump is a dump of one meta frame and two events, byte for byte: the
// header, then [u32 len][u32 crc32][payload] frames. The meta payload is
// u64 seq + reason; an event payload is LC, TS, Cause, A, B, Lag (u64 each)
// and u32 sub | kind<<8 | actor<<16.
const goldenDump = `
42514c4d 01000000
0e000000 35bf89ce 0100000000000000 676f6c64656e
34000000 f24f2d5b
	0100000000000000 00002a36fe9c9717 c0ab000000000000
	0500000000000000 0000000000000000 0000000000000000 01080000
34000000 5fa708d8
	0200000000000000 40423936fe9c9717 c1ab000000000000
	0300000000000000 0400000000000000 dc05000000000000 020f0200
`

// TestDumpBytesGolden pins the black-box dump format, so a dump written
// today stays readable by every later `mlqtool blackbox`.
func TestDumpBytesGolden(t *testing.T) {
	evts := []Event{
		{LC: 1, TS: 1700000000000000000, Cause: 0xabc0, Sub: SubJournal, Kind: KindJournalReset, A: 5},
		{LC: 2, TS: 1700000000001000000, Cause: 0xabc1, Sub: SubReplica, Kind: KindFailover, Actor: 2, A: 3, B: 4, Lag: 1500},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, DumpMeta{Seq: 1, Reason: "golden"}, evts); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(goldenDump), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("dump bytes drifted:\n got %x\nwant %x", buf.Bytes(), want)
	}
}
