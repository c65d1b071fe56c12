package events

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sampleEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			LC:    uint64(i + 1),
			TS:    int64(1700000000e9) + int64(i)*int64(time.Millisecond),
			Cause: uint64(0xabc0 + i),
			Sub:   Subsystem(i % int(NumSubsystems)),
			Kind:  Kind(1 + i%int(KindMark)),
			Actor: uint16(i % 3),
			A:     uint64(i * 10),
			B:     uint64(i * 100),
			Lag:   int64(i) * int64(time.Microsecond),
		}
	}
	return out
}

func TestDumpRoundTrip(t *testing.T) {
	evts := sampleEvents(25)
	var buf bytes.Buffer
	meta := DumpMeta{Seq: 3, Reason: "failover"}
	if err := WriteDump(&buf, meta, evts); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	got, gotEvts, crcErrs, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if crcErrs != 0 {
		t.Fatalf("crcErrors = %d, want 0", crcErrs)
	}
	if got != meta {
		t.Fatalf("meta = %+v, want %+v", got, meta)
	}
	if len(gotEvts) != len(evts) {
		t.Fatalf("decoded %d events, want %d", len(gotEvts), len(evts))
	}
	for i := range evts {
		if gotEvts[i] != evts[i] {
			t.Fatalf("event %d = %+v, want %+v", i, gotEvts[i], evts[i])
		}
	}
}

func TestDumpBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDump(&buf, DumpMeta{Seq: 1}, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[0:], 0xdeadbeef)
	if _, _, _, err := ReadDump(bytes.NewReader(bad)); !errors.Is(err, ErrDumpMagic) {
		t.Fatalf("bad magic error = %v, want ErrDumpMagic", err)
	}

	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[4:], 99)
	if _, _, _, err := ReadDump(bytes.NewReader(bad)); !errors.Is(err, ErrDumpVersion) {
		t.Fatalf("bad version error = %v, want ErrDumpVersion", err)
	}
}

func TestDumpCorruptFrameCountedNotFatal(t *testing.T) {
	evts := sampleEvents(5)
	var buf bytes.Buffer
	if err := WriteDump(&buf, DumpMeta{Seq: 1, Reason: "x"}, evts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte inside the third event's payload (header 8, meta frame
	// 8+8+1, then two full event frames).
	metaFrame := 8 + 8 + 1
	evtFrame := 8 + eventFrameSize
	off := 8 + metaFrame + 2*evtFrame + 8 + 10
	raw[off] ^= 0xff

	meta, got, crcErrs, err := ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if meta.Reason != "x" {
		t.Fatalf("meta reason = %q", meta.Reason)
	}
	if crcErrs != 1 {
		t.Fatalf("crcErrors = %d, want 1", crcErrs)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d events, want 4 (one corrupt frame skipped)", len(got))
	}
	// Framing is length-prefixed: the frames after the corrupt one survive.
	if got[2].LC != evts[3].LC || got[3].LC != evts[4].LC {
		t.Fatalf("post-corruption frames wrong: %d, %d", got[2].LC, got[3].LC)
	}
}

func TestDumpTruncatedTailKeepsPrefix(t *testing.T) {
	evts := sampleEvents(4)
	var buf bytes.Buffer
	if err := WriteDump(&buf, DumpMeta{Seq: 1}, evts); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-10] // tear mid-frame

	_, got, crcErrs, err := ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadDump on torn file: %v", err)
	}
	if crcErrs != 1 {
		t.Fatalf("crcErrors = %d, want 1 (the torn tail)", crcErrs)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d events, want the 3 intact ones", len(got))
	}
}

func TestTriggerWritesDecodableDump(t *testing.T) {
	dir := t.TempDir()
	clk := fakeClock()
	r := New(Config{Clock: clk, RingSize: 32, DumpDir: dir, MaxDumps: 2, Seed: 7})

	cause := r.MintID()
	mint := r.Now()
	r.EmitHop(SubCore, KindObserve, cause, mint, 0, 1)
	clk.Advance(time.Millisecond)
	r.EmitHop(SubJournal, KindJournalAppend, cause, mint, 0, 1)
	r.Trigger("breaker open!")

	files, err := filepath.Glob(filepath.Join(dir, "blackbox-*.mlqbb"))
	if err != nil || len(files) != 1 {
		t.Fatalf("dump files = %v (err %v), want exactly one", files, err)
	}
	if want := filepath.Join(dir, "blackbox-001-breaker-open-.mlqbb"); files[0] != want {
		t.Fatalf("dump name = %s, want %s", files[0], want)
	}
	meta, evts, crcErrs, err := ReadDumpFile(files[0])
	if err != nil || crcErrs != 0 {
		t.Fatalf("decode: err %v, crcErrors %d", err, crcErrs)
	}
	if meta.Seq != 1 || meta.Reason != "breaker open!" {
		t.Fatalf("meta = %+v", meta)
	}
	// The dump holds the two hops plus the trigger marker itself.
	if len(evts) != 3 {
		t.Fatalf("dump has %d events, want 3", len(evts))
	}
	if evts[2].Kind != KindTrigger {
		t.Fatalf("last event kind = %v, want trigger", evts[2].Kind)
	}

	// Budget: MaxDumps caps automatic files, triggers past it still count.
	r.Trigger("again")
	r.Trigger("past budget")
	files, _ = filepath.Glob(filepath.Join(dir, "blackbox-*.mlqbb"))
	if len(files) != 2 {
		t.Fatalf("dump files after budget = %d, want 2", len(files))
	}
}

func TestTriggerWithoutDumpDir(t *testing.T) {
	r := New(Config{Clock: fakeClock(), RingSize: 8})
	r.Trigger("no dir configured")
	if n := r.DumpErrors(); n != 0 {
		t.Fatalf("DumpErrors = %d, want 0", n)
	}
	evts := r.Snapshot()
	if len(evts) != 1 || evts[0].Kind != KindTrigger {
		t.Fatalf("trigger event missing: %+v", evts)
	}
}

func TestTriggerDumpErrorCounted(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Config{Clock: fakeClock(), RingSize: 8, DumpDir: filepath.Join(bad, "sub")})
	r.Trigger("doomed")
	if n := r.DumpErrors(); n != 1 {
		t.Fatalf("DumpErrors = %d, want 1", n)
	}
}

func TestDumpToExplicitExport(t *testing.T) {
	r := New(Config{Clock: fakeClock(), RingSize: 8})
	r.Emit(SubHarness, KindMark, 0, 1, 0)
	var buf bytes.Buffer
	if err := r.DumpTo(&buf, "final"); err != nil {
		t.Fatalf("DumpTo: %v", err)
	}
	meta, evts, crcErrs, err := ReadDump(&buf)
	if err != nil || crcErrs != 0 {
		t.Fatalf("decode: %v / %d", err, crcErrs)
	}
	if meta.Reason != "final" || len(evts) != 1 {
		t.Fatalf("meta %+v, %d events", meta, len(evts))
	}
}

// FuzzReadDump feeds ReadDump arbitrary bytes, which it must survive, and
// a WriteDump stream cut at an arbitrary byte, which must decode to a
// prefix of what the whole stream decodes to.
func FuzzReadDump(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteDump(&seed, DumpMeta{Seq: 2, Reason: "seed"}, sampleEvents(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint8(3), uint16(0))
	f.Add(seed.Bytes()[:seed.Len()-5], uint8(5), uint16(40))
	f.Add([]byte{}, uint8(0), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, n uint8, cut uint16) {
		_, _, _, _ = ReadDump(bytes.NewReader(data))

		var buf bytes.Buffer
		meta := DumpMeta{Seq: 1, Reason: "fuzz"}
		if err := WriteDump(&buf, meta, sampleEvents(int(n%32))); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		_, all, _, err := ReadDump(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		c := int(cut) % (len(full) + 1)
		gotMeta, got, _, err := ReadDump(bytes.NewReader(full[:c]))
		if c < 8 {
			if err == nil {
				t.Fatalf("a %d-byte stream decoded without a header", c)
			}
			return
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", c, err)
		}
		if gotMeta != meta && gotMeta != (DumpMeta{}) {
			t.Fatalf("cut at %d: meta %+v, want %+v or none", c, gotMeta, meta)
		}
		if len(got) > len(all) {
			t.Fatalf("cut at %d: %d events from a stream of %d", c, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("cut at %d: event %d = %+v, want %+v", c, i, got[i], all[i])
			}
		}
	})
}
