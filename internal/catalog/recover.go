package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"mlq/internal/frame"
)

// CorruptionError reports a partial catalog load: Read salvaged every intact
// entry and lists what it had to drop. Callers receive the salvaged catalog
// alongside this error.
type CorruptionError struct {
	// Dropped names what was lost — a UDF name where the damaged frame still
	// carried a readable one, otherwise a description of the region.
	Dropped []string
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("catalog: recovered around %d damaged region(s): %s",
		len(e.Dropped), strings.Join(e.Dropped, "; "))
}

// frameHeader is entry magic + frame header.
const frameHeader = 4 + frame.HeaderLen

// scanEntries walks a v2 entry stream salvaging every intact frame. Damage is
// contained by resynchronizing on the next entry magic; each skipped region
// is described (by the entry's name when it survived) in the returned drop
// list. want is the header's entry count, or -1 when unknown; it only adds a
// truncation note when fewer regions than promised exist at all.
func scanEntries(data []byte, want int64) (*Catalog, []string) {
	c := New()
	var drops []string
	pos := 0
	for pos < len(data) {
		idx := bytes.Index(data[pos:], entryMagic)
		if idx < 0 {
			// No frame ahead: the tail is one damaged region.
			drops = append(drops, describeRegion(data[pos:], pos))
			break
		}
		if idx > 0 {
			// Garbage before the next frame — an entry whose own magic was
			// destroyed.
			drops = append(drops, describeRegion(data[pos:pos+idx], pos))
		}
		start := pos + idx
		name, entry, frameLen, err := parseFrame(data[start:])
		if err != nil {
			// Broken frame: drop it and resynchronize at the next magic.
			// (A magic-like byte pattern inside the broken frame's payload
			// may cause extra failed parses; each only shrinks the skipped
			// region, never an intact neighbor.)
			end := len(data)
			if next := bytes.Index(data[start+len(entryMagic):], entryMagic); next >= 0 {
				end = start + len(entryMagic) + next
			}
			drops = append(drops, describeRegion(data[start:end], start))
			pos = end
			continue
		}
		c.entries[name] = entry
		pos = start + frameLen
	}
	if want >= 0 {
		if missing := want - int64(c.Len()) - int64(len(drops)); missing > 0 {
			drops = append(drops, fmt.Sprintf("%d entr(ies) lost to truncation", missing))
		}
	}
	return c, drops
}

// parseFrame decodes one entry frame at the start of b, verifying length
// bounds and the payload CRC before trusting any of it.
func parseFrame(b []byte) (name string, e *Entry, frameLen int, err error) {
	payload, n, err := frame.Parse(b[len(entryMagic):], 0, maxModelSize)
	if err != nil {
		return "", nil, 0, fmt.Errorf("catalog: entry frame: %w", err)
	}
	name, e, err = decodeEntryPayload(payload)
	if err != nil {
		return "", nil, 0, err
	}
	return name, e, len(entryMagic) + n, nil
}

// decodeEntryPayload parses a CRC-verified entry payload: name, CPU slot, IO
// slot, nothing else.
func decodeEntryPayload(payload []byte) (string, *Entry, error) {
	br := bufio.NewReader(bytes.NewReader(payload))
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return "", nil, fmt.Errorf("catalog: entry name length: %w", err)
	}
	if nameLen == 0 || nameLen > maxNameLen {
		return "", nil, fmt.Errorf("catalog: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", nil, fmt.Errorf("catalog: entry name: %w", err)
	}
	cpu, err := decodeModel(br)
	if err != nil {
		return "", nil, fmt.Errorf("catalog: entry %q cpu: %w", name, err)
	}
	ioModel, err := decodeModel(br)
	if err != nil {
		return "", nil, fmt.Errorf("catalog: entry %q io: %w", name, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return "", nil, fmt.Errorf("catalog: entry %q has trailing bytes", name)
	}
	return string(name), &Entry{CPU: cpu, IO: ioModel}, nil
}

// describeRegion labels one damaged region for the drop list. The entry's
// name sits right after the frame header, so it usually survives payload
// damage (a CRC can fail because of a single flipped cost byte); when the
// name itself is unreadable the region is identified by offset.
func describeRegion(region []byte, off int) string {
	if len(region) >= frameHeader+4 {
		nameLen := binary.LittleEndian.Uint32(region[frameHeader : frameHeader+4])
		if nameLen > 0 && nameLen <= maxNameLen && frameHeader+4+int(nameLen) <= len(region) {
			name := region[frameHeader+4 : frameHeader+4+int(nameLen)]
			if plausibleName(name) {
				return string(name)
			}
		}
	}
	return fmt.Sprintf("unrecognizable entry at offset %d", off)
}

// plausibleName filters the best-effort name guess to printable ASCII so a
// random byte soup is never reported as a UDF name.
func plausibleName(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return len(b) > 0
}
