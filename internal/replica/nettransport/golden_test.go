package nettransport

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/replica"
)

// TestWireFramesGolden pins the replication stream's bytes, so a follower
// built from any commit can read a primary built from any other: each frame
// is [u32 len][u32 crc32][payload], and the payload starts with its frame
// kind.
func TestWireFramesGolden(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{
			name: "record",
			got: appendMsgFrame(nil, replica.Msg{Kind: replica.KindRecord, Rec: replica.Record{
				Seq: 7, Term: 3, Point: geom.Point{1.5, -2.25}, Value: 42.125, Cause: 99, MintNS: 123456789,
			}}),
			// kind, msg kind, seq, term, value, cause, mint, u16 dims, point
			want: `3c000000 8befffe6 01 00
				0700000000000000 0300000000000000 0000000000104540
				6300000000000000 15cd5b0700000000 0200
				000000000000f83f 00000000000002c0`,
		},
		{
			name: "term",
			got:  appendMsgFrame(nil, replica.Msg{Kind: replica.KindTerm, Term: 6, Seq: 2000}),
			want: `12000000 9993c49f 01 01 0600000000000000 d007000000000000`,
		},
		{
			name: "barrier",
			got:  appendU64Frame(nil, fmBarrier, 0x0102030405060708),
			want: `09000000 640e1108 02 0807060504030201`,
		},
	}
	for _, c := range cases {
		want, err := hex.DecodeString(strings.Join(strings.Fields(c.want), ""))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s frame bytes drifted:\n got %x\nwant %x", c.name, c.got, want)
		}
	}
}
