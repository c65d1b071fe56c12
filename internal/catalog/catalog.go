// Package catalog stores the cost models of many UDFs the way a DBMS
// catalog would: keyed by UDF name, one CPU-cost and one IO-cost model per
// UDF (§1: "the query optimizer needs to keep two cost estimators for each
// UDF"), persisted to a single stream so the optimizer's accumulated
// knowledge survives restarts.
//
// Both model families of this library serialize: self-tuning MLQ models
// (*core.MLQ, or *core.Publisher persisting its published snapshot) and
// static histograms (*histogram.Histogram).
package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"mlq/internal/core"
	"mlq/internal/frame"
	"mlq/internal/histogram"
)

// Entry holds one UDF's pair of cost models. Either slot may be nil.
type Entry struct {
	CPU core.Model
	IO  core.Model
}

// Catalog is an in-memory model catalog with stream persistence. It is not
// safe for concurrent use; wrap accesses with a lock in a multi-session
// server.
type Catalog struct {
	entries map[string]*Entry
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[string]*Entry)}
}

// persistable verifies that a model is of a serializable concrete type. A
// *core.Publisher persists as its current published snapshot (an MLQ blob),
// so a concurrent feedback loop can be cataloged without stopping it.
func persistable(m core.Model) error {
	switch m.(type) {
	case nil, *core.MLQ, *core.Publisher, *histogram.Histogram:
		return nil
	default:
		return fmt.Errorf("catalog: model type %T is not serializable (want *core.MLQ, *core.Publisher or *histogram.Histogram)", m)
	}
}

// Put registers (or replaces) a UDF's models. Models must be persistable.
func (c *Catalog) Put(name string, cpu, io core.Model) error {
	if name == "" {
		return fmt.Errorf("catalog: UDF name must be non-empty")
	}
	if err := persistable(cpu); err != nil {
		return err
	}
	if err := persistable(io); err != nil {
		return err
	}
	c.entries[name] = &Entry{CPU: cpu, IO: io}
	return nil
}

// Get returns a UDF's entry.
func (c *Catalog) Get(name string) (*Entry, bool) {
	e, ok := c.entries[name]
	return e, ok
}

// Delete removes a UDF's entry, if present.
func (c *Catalog) Delete(name string) { delete(c.entries, name) }

// Len returns the number of registered UDFs.
func (c *Catalog) Len() int { return len(c.entries) }

// Names returns the registered UDF names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

const (
	catalogMagic   = 0x4d4c5143 // "MLQC"
	catalogVersion = 2          // CRC32-framed entries; v1 streams still load

	catalogVersionV1 = 1

	slotNil       = 0
	slotMLQ       = 1
	slotHistogram = 2

	// maxStream bounds how much of an untrusted stream Read buffers.
	maxStream = 1 << 30
	// maxModelSize bounds one serialized model blob.
	maxModelSize = 1 << 28
	// maxNameLen bounds one UDF name.
	maxNameLen = 4096
	// maxEntries bounds the header's entry count.
	maxEntries = 1 << 20
)

// entryMagic frames every v2 entry. Recovery resynchronizes on it after
// damage, so a corrupt entry costs only itself, not the rest of the stream.
var entryMagic = []byte("MQE2")

// encodeModel renders one model slot as (tag, length, blob).
func encodeModel(w io.Writer, m core.Model) error {
	var tag uint8
	var blob bytes.Buffer
	switch v := m.(type) {
	case nil:
		tag = slotNil
	case *core.MLQ:
		tag = slotMLQ
		if _, err := v.WriteTo(&blob); err != nil {
			return err
		}
	case *core.Publisher:
		// Persist the published snapshot: the same MLQ frame an unwrapped
		// model would write, so the entry decodes as *core.MLQ and can be
		// re-wrapped (or not) at load time. Callers wanting zero staleness
		// in the saved state should Flush first.
		tag = slotMLQ
		if _, err := v.Snapshot().WriteTo(&blob); err != nil {
			return err
		}
	case *histogram.Histogram:
		tag = slotHistogram
		if _, err := v.WriteTo(&blob); err != nil {
			return err
		}
	default:
		return fmt.Errorf("catalog: model type %T is not serializable", m)
	}
	if err := binary.Write(w, binary.LittleEndian, tag); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(blob.Len())); err != nil {
		return err
	}
	_, err := w.Write(blob.Bytes())
	return err
}

// decodeModel parses one model slot.
func decodeModel(r *bufio.Reader) (core.Model, error) {
	var tag uint8
	var size uint32
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
		return nil, err
	}
	if size > maxModelSize {
		return nil, fmt.Errorf("catalog: implausible model size %d", size)
	}
	blob := make([]byte, size)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, err
	}
	switch tag {
	case slotNil:
		if size != 0 {
			return nil, fmt.Errorf("catalog: nil slot with %d payload bytes", size)
		}
		return nil, nil
	case slotMLQ:
		return core.ReadMLQ(bytes.NewReader(blob))
	case slotHistogram:
		return histogram.Read(bytes.NewReader(blob))
	default:
		return nil, fmt.Errorf("catalog: unknown model tag %d", tag)
	}
}

// WriteTo persists the whole catalog in the v2 format: a 12-byte header
// (magic, version, entry count) followed by one self-describing frame per
// entry — entry magic, then the payload as an internal/frame frame.
// The whole stream is assembled in memory and issued as a single Write, so a
// failed write never leaves a half-written destination behind the caller's
// back. It implements io.WriterTo.
func (c *Catalog) WriteTo(w io.Writer) (int64, error) {
	buf := binary.LittleEndian.AppendUint32(nil, catalogMagic)
	buf = binary.LittleEndian.AppendUint32(buf, catalogVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.entries)))
	for _, name := range c.Names() {
		var payload bytes.Buffer
		binary.Write(&payload, binary.LittleEndian, uint32(len(name)))
		payload.WriteString(name)
		e := c.entries[name]
		if err := encodeModel(&payload, e.CPU); err != nil {
			return 0, err
		}
		if err := encodeModel(&payload, e.IO); err != nil {
			return 0, err
		}
		buf = frame.Append(append(buf, entryMagic...), payload.Bytes())
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// Read loads a catalog previously written with WriteTo (either stream
// version). Damage in a v2 stream is contained per entry: Read salvages every
// intact entry and reports the rest in a *CorruptionError, returning BOTH the
// partial catalog and the error. Callers that can live with partial knowledge
// (a cost model catalog can — a dropped entry merely means re-learning one
// UDF) should check for *CorruptionError with errors.As before treating the
// load as failed.
func Read(r io.Reader) (*Catalog, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxStream+1))
	if err != nil {
		return nil, fmt.Errorf("catalog: reading stream: %w", err)
	}
	if len(data) > maxStream {
		return nil, fmt.Errorf("catalog: stream exceeds %d bytes", maxStream)
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("catalog: stream too short for header (%d bytes)", len(data))
	}
	magic := binary.LittleEndian.Uint32(data[0:4])
	version := binary.LittleEndian.Uint32(data[4:8])
	count := binary.LittleEndian.Uint32(data[8:12])
	switch {
	case magic != catalogMagic:
		// A damaged header must not cost the whole catalog: v2 entries are
		// self-framing, so scan the entire stream for them. v1 streams and
		// plain garbage have no frames and keep the hard error.
		c, drops := scanEntries(data, -1)
		if c.Len() > 0 {
			drops = append([]string{"header (bad magic)"}, drops...)
			return c, &CorruptionError{Dropped: drops}
		}
		return nil, fmt.Errorf("catalog: bad magic %#x", magic)
	case version == catalogVersionV1:
		return readV1(data[12:], count)
	case version == catalogVersion:
		want := int64(count)
		if count > maxEntries {
			want = -1 // corrupt count: recover whatever is there
		}
		c, drops := scanEntries(data[12:], want)
		if len(drops) > 0 {
			return c, &CorruptionError{Dropped: drops}
		}
		return c, nil
	default:
		return nil, fmt.Errorf("catalog: unsupported version %d", version)
	}
}

// readV1 decodes the legacy unframed stream strictly: without per-entry CRCs
// there is no way to tell damage from drift, so any inconsistency fails the
// whole load.
func readV1(body []byte, count uint32) (*Catalog, error) {
	if count > maxEntries {
		return nil, fmt.Errorf("catalog: implausible entry count %d", count)
	}
	br := bufio.NewReader(bytes.NewReader(body))
	c := New()
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, err)
		}
		if nameLen == 0 || nameLen > maxNameLen {
			return nil, fmt.Errorf("catalog: entry %d: implausible name length %d", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, err)
		}
		cpu, err := decodeModel(br)
		if err != nil {
			return nil, fmt.Errorf("catalog: entry %q cpu: %w", name, err)
		}
		ioModel, err := decodeModel(br)
		if err != nil {
			return nil, fmt.Errorf("catalog: entry %q io: %w", name, err)
		}
		c.entries[string(name)] = &Entry{CPU: cpu, IO: ioModel}
	}
	return c, nil
}
