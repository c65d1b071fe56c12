// Black-box dump format: how the flight recorder freezes the event spine
// to disk and how `mlqtool blackbox` reads it back.
//
// Layout (all little-endian): a fixed header, then internal/frame frames —
// the journal's framing — so a torn tail is detectable and everything before
// it stays decodable:
//
//	magic   u32  "MLQB" (0x4d4c5142)
//	version u32  1
//	frames
//
// Frame 0 is the meta payload (dump sequence, trigger reason); every later
// frame is one Event. A reader that hits a bad CRC reports it and keeps the
// frames before it — a flight recorder that loses power mid-write must
// still yield the events that made it out.
package events

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mlq/internal/frame"
)

// DumpMagic identifies a black-box dump file ("MLQB" little-endian).
const DumpMagic uint32 = 0x4d4c5142

// DumpVersion is the current dump format version.
const DumpVersion uint32 = 1

// eventFrameSize is the serialized Event payload: LC, TS, Cause, A, B, Lag
// (u64 each) + packed sub/kind/actor (u32).
const eventFrameSize = 6*8 + 4

// DumpMeta is frame 0 of a dump: which trigger fired and where this dump
// sits in the recorder's sequence.
type DumpMeta struct {
	Seq    uint64 // dump ordinal within the recorder, from 1
	Reason string // trigger reason, e.g. "failover" or "journal-torn"
}

// ErrDumpMagic reports a file that is not a black-box dump.
var ErrDumpMagic = errors.New("events: bad dump magic")

// ErrDumpVersion reports a dump written by a newer format.
var ErrDumpVersion = errors.New("events: unsupported dump version")

func putEvent(buf []byte, e Event) {
	binary.LittleEndian.PutUint64(buf[0:], e.LC)
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.TS))
	binary.LittleEndian.PutUint64(buf[16:], e.Cause)
	binary.LittleEndian.PutUint64(buf[24:], e.A)
	binary.LittleEndian.PutUint64(buf[32:], e.B)
	binary.LittleEndian.PutUint64(buf[40:], uint64(e.Lag))
	binary.LittleEndian.PutUint32(buf[48:], uint32(packSKA(e.Sub, e.Kind, e.Actor)))
}

func getEvent(buf []byte) Event {
	var e Event
	e.LC = binary.LittleEndian.Uint64(buf[0:])
	e.TS = int64(binary.LittleEndian.Uint64(buf[8:]))
	e.Cause = binary.LittleEndian.Uint64(buf[16:])
	e.A = binary.LittleEndian.Uint64(buf[24:])
	e.B = binary.LittleEndian.Uint64(buf[32:])
	e.Lag = int64(binary.LittleEndian.Uint64(buf[40:]))
	e.Sub, e.Kind, e.Actor = unpackSKA(uint64(binary.LittleEndian.Uint32(buf[48:])))
	return e
}

// WriteDump serializes meta and events as a black-box dump.
func WriteDump(w io.Writer, meta DumpMeta, evts []Event) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], DumpMagic)
	binary.LittleEndian.PutUint32(hdr[4:], DumpVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	metaBuf := make([]byte, 8+len(meta.Reason))
	binary.LittleEndian.PutUint64(metaBuf[0:], meta.Seq)
	copy(metaBuf[8:], meta.Reason)
	out := frame.Append(nil, metaBuf)
	if _, err := bw.Write(out); err != nil {
		return err
	}
	payload := make([]byte, eventFrameSize)
	for _, e := range evts {
		putEvent(payload, e)
		out = frame.Append(out[:0], payload)
		if _, err := bw.Write(out); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxFrameLen rejects absurd frame lengths before allocating: no legal
// frame exceeds the meta reason bound by much, and an event frame is fixed.
const maxFrameLen = 1 << 16

// ReadDump decodes a black-box dump. Frames with CRC mismatches are dropped
// and counted in crcErrors, and so is a torn or oversized frame, which ends
// the decode (nothing after it can be framed); the events decoded before the
// damage are returned regardless, so a torn dump still yields its prefix.
// err is non-nil only for structural problems (bad magic, unsupported
// version, unreadable header).
func ReadDump(r io.Reader) (meta DumpMeta, evts []Event, crcErrors int, err error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return meta, nil, 0, fmt.Errorf("events: reading dump header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != DumpMagic {
		return meta, nil, 0, fmt.Errorf("%w: 0x%08x", ErrDumpMagic, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != DumpVersion {
		return meta, nil, 0, fmt.Errorf("%w: %d", ErrDumpVersion, v)
	}
	fr := frame.Reader{R: br, Max: maxFrameLen}
	first := true
	for {
		payload, e := fr.Next()
		if e == io.EOF {
			return meta, evts, crcErrors, nil
		}
		if e == frame.ErrChecksum {
			// Framing is length-prefixed, so one bad frame does not poison
			// the next — keep scanning, counting the damage.
			crcErrors++
			first = false
			continue
		}
		if e != nil {
			// A torn or oversized frame: count it as damage, keep the prefix.
			crcErrors++
			return meta, evts, crcErrors, nil
		}
		if first {
			first = false
			if len(payload) >= 8 {
				meta.Seq = binary.LittleEndian.Uint64(payload[0:])
				meta.Reason = string(payload[8:])
			}
			continue
		}
		if len(payload) == eventFrameSize {
			evts = append(evts, getEvent(payload))
		} else {
			crcErrors++
		}
	}
}

// ReadDumpFile decodes the dump at path.
func ReadDumpFile(path string) (DumpMeta, []Event, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return DumpMeta{}, nil, 0, err
	}
	defer f.Close()
	return ReadDump(f)
}

// DumpTo freezes the current spine (every subsystem's committed events,
// LC-sorted) into w under the given reason. Unlike Trigger it neither
// consumes the auto-dump budget nor emits an event — it is the explicit
// export path (mlqbench's final dump, tests).
func (r *Recorder) DumpTo(w io.Writer, reason string) error {
	if r == nil {
		return nil
	}
	r.dumpMu.Lock()
	r.dumpSeq++
	seq := r.dumpSeq
	r.dumpMu.Unlock()
	return WriteDump(w, DumpMeta{Seq: seq, Reason: reason}, r.Snapshot())
}

// sanitizeReason maps a trigger reason to a filename-safe token.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "trigger"
	}
	return b.String()
}

// Trigger fires the flight recorder: it emits a KindTrigger event on the
// harness ring and, when the recorder has a DumpDir and budget left, writes
// the full spine to blackbox-NNN-<reason>.mlqbb there. File names are
// sequence-numbered, not timestamped, so a deterministic run produces
// deterministic artifacts. Failures are counted (DumpErrors, telemetry) and
// swallowed: the recorder must never crash the flight it is recording.
func (r *Recorder) Trigger(reason string) {
	if r == nil {
		return
	}
	r.dumpMu.Lock()
	r.dumpSeq++
	seq := r.dumpSeq
	write := r.dumpDir != "" && seq <= uint64(r.dumpMax)
	r.dumpMu.Unlock()

	r.Emit(SubHarness, KindTrigger, 0, seq, 0)
	if tel := r.tel.Load(); tel != nil {
		tel.triggered.Inc()
	}
	if !write {
		return
	}

	name := fmt.Sprintf("blackbox-%03d-%s.mlqbb", seq, sanitizeReason(reason))
	path := filepath.Join(r.dumpDir, name)
	err := func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := WriteDump(f, DumpMeta{Seq: seq, Reason: reason}, r.Snapshot()); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}()
	tel := r.tel.Load()
	if err != nil {
		r.dumpErrs.Add(1)
		if tel != nil {
			tel.dumpErrs.Inc()
		}
		return
	}
	if tel != nil {
		tel.dumps.Inc()
	}
}
