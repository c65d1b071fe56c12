package nettransport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"mlq/internal/frame"
	"mlq/internal/geom"
	"mlq/internal/replica"
)

func TestMsgCodecRoundTrip(t *testing.T) {
	msgs := []replica.Msg{
		{Kind: replica.KindRecord, Rec: replica.Record{
			Seq: 7, Term: 3, Point: geom.Point{1.5, -2.25, 1e300}, Value: 42.125, Cause: 99, MintNS: 123456789,
		}},
		{Kind: replica.KindRecord, Rec: replica.Record{Seq: 1, Term: 1, Point: geom.Point{}, Value: math.Inf(1)}},
		{Kind: replica.KindTerm, Term: 6, Seq: 2000},
	}
	for i, m := range msgs {
		p := encodeMsg(m)
		got, err := decodeMsg(p)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if got.Kind != m.Kind || got.Term != m.Term || got.Seq != m.Seq {
			t.Fatalf("msg %d: control fields drifted: got %+v want %+v", i, got, m)
		}
		if m.Kind == replica.KindRecord {
			if got.Rec.Seq != m.Rec.Seq || got.Rec.Term != m.Rec.Term || got.Rec.Value != m.Rec.Value ||
				got.Rec.Cause != m.Rec.Cause || got.Rec.MintNS != m.Rec.MintNS || len(got.Rec.Point) != len(m.Rec.Point) {
				t.Fatalf("msg %d: record drifted: got %+v want %+v", i, got.Rec, m.Rec)
			}
			for d := range m.Rec.Point {
				if got.Rec.Point[d] != m.Rec.Point[d] {
					t.Fatalf("msg %d: point dim %d drifted", i, d)
				}
			}
		}
	}
}

func TestFrameReaderSkipsDamagedKeepsAlignment(t *testing.T) {
	m1 := frame.Append(nil, encodeMsg(replica.Msg{Kind: replica.KindTerm, Term: 1, Seq: 1}))
	m2 := frame.Append(nil, encodeMsg(replica.Msg{Kind: replica.KindTerm, Term: 2, Seq: 2}))
	m3 := frame.Append(nil, encodeMsg(replica.Msg{Kind: replica.KindTerm, Term: 3, Seq: 3}))
	m2[frame.HeaderLen+3] ^= 0xFF // corrupt frame 2's payload; CRC must catch it

	fr := wireReader(bytes.NewReader(append(append(append([]byte(nil), m1...), m2...), m3...)))
	p, err := fr.Next()
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if m, _ := decodeMsg(p); m.Term != 1 {
		t.Fatalf("frame 1 decoded term %d, want 1", m.Term)
	}
	if _, err := fr.Next(); err != frame.ErrChecksum {
		t.Fatalf("frame 2: got %v, want frame.ErrChecksum", err)
	}
	p, err = fr.Next()
	if err != nil {
		t.Fatalf("frame 3 after damage: %v — damage must not desynchronize the stream", err)
	}
	if m, _ := decodeMsg(p); m.Term != 3 {
		t.Fatalf("frame 3 decoded term %d, want 3", m.Term)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("tail: got %v, want EOF", err)
	}
}

func TestFrameReaderKillsStreamOnImplausibleLength(t *testing.T) {
	var hdr [frame.HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFramePayload+1)
	fr := wireReader(bytes.NewReader(hdr[:]))
	_, err := fr.Next()
	if err == nil || err == frame.ErrChecksum {
		t.Fatalf("implausible length: got %v, want an unrecoverable stream error", err)
	}
}

func TestPreambleRejectsStrangers(t *testing.T) {
	var buf bytes.Buffer
	if err := writePreamble(&buf, purposeBootstrap); err != nil {
		t.Fatal(err)
	}
	purpose, err := readPreamble(bytes.NewReader(buf.Bytes()))
	if err != nil || purpose != purposeBootstrap {
		t.Fatalf("round trip: purpose %d err %v", purpose, err)
	}
	if _, err := readPreamble(bytes.NewReader([]byte("GET / HTTP/1.1\r\n"))); err == nil {
		t.Fatal("foreign protocol accepted")
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 99 // future version
	if _, err := readPreamble(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown wire version accepted")
	}
}

// FuzzWireDecode pins the decoder's two safety properties: it never panics
// on arbitrary bytes, and it never yields a Msg from a corrupt frame — any
// payload it accepts must be exactly the canonical encoding of the message
// it returns (acceptance implies canonical round-trip).
func FuzzWireDecode(f *testing.F) {
	f.Add(encodeMsg(replica.Msg{Kind: replica.KindRecord, Rec: replica.Record{
		Seq: 1, Term: 1, Point: geom.Point{3.5, -1}, Value: 2, Cause: 4, MintNS: 5,
	}}))
	// An unknown message kind (2) is damage, never a Msg.
	f.Add(append([]byte{fmMsg, 2}, make([]byte, 8*3)...))
	f.Add(encodeMsg(replica.Msg{Kind: replica.KindTerm, Term: 9, Seq: 8}))
	f.Add([]byte{fmMsg})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMsg(data)
		if err == nil {
			if again := encodeMsg(m); !bytes.Equal(again, data) {
				t.Fatalf("decoder accepted a non-canonical payload: %x decoded to %+v which re-encodes as %x", data, m, again)
			}
		}
		// The framed path must also never panic, whatever the bytes.
		fr := wireReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			p, ferr := fr.Next()
			if ferr == frame.ErrChecksum {
				continue
			}
			if ferr != nil {
				break
			}
			_, _ = decodeMsg(p)
		}
	})
}
