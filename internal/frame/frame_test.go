package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestAppendParseRead(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xa5}, 300)}
	var stream []byte
	for _, p := range payloads {
		before := len(stream)
		stream = Append(stream, p)
		if Len(stream[before:]) != len(stream)-before {
			t.Fatalf("Len %d, want %d", Len(stream[before:]), len(stream)-before)
		}
	}
	// Open/Seal around an in-place encoding frames the same bytes.
	var inPlace []byte
	for _, p := range payloads {
		var start int
		inPlace, start = Open(inPlace)
		inPlace = Seal(append(inPlace, p...), start)
	}
	if !bytes.Equal(inPlace, stream) {
		t.Fatalf("Open/Seal framed %x, Append %x", inPlace, stream)
	}

	b := stream
	r := Reader{R: bytes.NewReader(stream), Max: 1 << 10}
	for i, want := range payloads {
		p, n, err := Parse(b, 0, 1<<10)
		if err != nil || !bytes.Equal(p, want) {
			t.Fatalf("Parse frame %d: %x, %v; want %x", i, p, err, want)
		}
		b = b[n:]
		if p, err := r.Next(); err != nil || !bytes.Equal(p, want) {
			t.Fatalf("Reader frame %d: %x, %v; want %x", i, p, err, want)
		}
	}
	if _, _, err := Parse(b, 0, 1<<10); err != ErrShort {
		t.Fatalf("Parse at the end: %v, want ErrShort", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Reader at the end: %v, want io.EOF", err)
	}
}

func TestDamageClasses(t *testing.T) {
	good := Append(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[HeaderLen] ^= 1
	cases := []struct {
		name     string
		b        []byte
		min, max int
		want     error
		wantN    int
	}{
		{"torn header", good[:HeaderLen-1], 0, 64, ErrShort, 0},
		{"torn payload", good[:len(good)-1], 0, 64, ErrShort, 0},
		{"below min", good, 8, 64, ErrLength, 0},
		{"above max", good, 0, 6, ErrLength, 0},
		{"bad checksum", flipped, 0, 64, ErrChecksum, len(good)},
	}
	for _, c := range cases {
		if _, n, err := Parse(c.b, c.min, c.max); err != c.want || n != c.wantN {
			t.Errorf("Parse %s: n=%d err=%v, want n=%d err=%v", c.name, n, err, c.wantN, c.want)
		}
		r := Reader{R: bytes.NewReader(c.b), Min: c.min, Max: c.max}
		if _, err := r.Next(); err != c.want {
			t.Errorf("Reader %s: %v, want %v", c.name, err, c.want)
		}
	}
	// A damaged frame costs only itself: the reader is aligned on the next.
	r := Reader{R: bytes.NewReader(append(flipped, good...)), Max: 64}
	if _, err := r.Next(); err != ErrChecksum {
		t.Fatalf("first frame: %v, want ErrChecksum", err)
	}
	if p, err := r.Next(); err != nil || string(p) != "payload" {
		t.Fatalf("frame after damage: %q, %v", p, err)
	}
	// Errors of the underlying reader pass through as they are.
	boom := errors.New("boom")
	r = Reader{R: io.MultiReader(bytes.NewReader(good[:3]), errReader{boom}), Max: 64}
	if _, err := r.Next(); err != boom {
		t.Fatalf("reader error: %v, want %v", err, boom)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Reading a frame into a buffer that already fits it allocates nothing.
func TestReaderAllocs(t *testing.T) {
	stream := Append(nil, []byte("steady"))
	src := bytes.NewReader(stream)
	r := Reader{R: src, Max: 64}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per frame, want 0", allocs)
	}
}

// FuzzParseReader holds the two decoders to one another: Parse walking a
// byte slice and Reader reading the same bytes as a stream must yield the
// same payloads and then the same class of error, and every payload either
// accepts must frame back to the bytes it came from.
func FuzzParseReader(f *testing.F) {
	two := Append(Append(nil, []byte("ab")), []byte("cde"))
	f.Add(two, uint8(0), uint16(16))
	f.Add(two[:len(two)-1], uint8(1), uint16(16))
	f.Add(two, uint8(3), uint16(16))
	f.Add(two, uint8(0), uint16(2))
	bad := append([]byte(nil), two...)
	bad[HeaderLen] ^= 0x40
	f.Add(bad, uint8(0), uint16(16))
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, min uint8, max uint16) {
		r := Reader{R: bytes.NewReader(data), Min: int(min), Max: int(max)}
		b := data
		for {
			want, n, perr := Parse(b, int(min), int(max))
			if perr == ErrShort && len(b) == 0 {
				perr = io.EOF // the slice ended between frames
			}
			got, rerr := r.Next()
			if rerr != perr {
				t.Fatalf("at offset %d: Reader %v, Parse %v", len(data)-len(b), rerr, perr)
			}
			if perr != nil && perr != ErrChecksum {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("at offset %d: Reader %x, Parse %x", len(data)-len(b), got, want)
			}
			if perr == nil && !bytes.Equal(Append(nil, want), b[:n]) {
				t.Fatalf("at offset %d: payload %x does not frame back to %x", len(data)-len(b), want, b[:n])
			}
			b = b[n:]
		}
	})
}
