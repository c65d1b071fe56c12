// Package journal is a bounded, CRC-framed, append-only observation journal:
// the crash-safety net under an asynchronous feedback loop. A core.Publisher
// acknowledges an observation as soon as it is queued, long before the writer
// goroutine folds it into a published (let alone persisted) snapshot — so a
// crash between acknowledgement and the next catalog save would silently lose
// learning. The journal closes that window: every accepted observation is
// appended here first, the file is truncated at each checkpoint (after the
// model state it covers has been made durable), and on restart Replay
// recovers the tail of observations the last save missed.
//
// The on-disk format is a magic + version header, then one internal/frame
// frame per record — the framing the catalog, the wire and the blackbox use —
// so damage is contained:
// a torn tail or a flipped bit costs the damaged record and everything after
// it, never the valid prefix — Replay returns what survived and how much was
// cut, and it never fails on damage alone.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"mlq/internal/events"
	"mlq/internal/frame"
)

const (
	magic   = 0x4d4c514a // "MLQJ"
	version = 1

	headerSize = 8

	// MaxDims bounds one record's point dimensionality; anything larger in a
	// stream is damage, not data.
	MaxDims = 255
	// DefaultMaxRecords bounds the journal when Create is given no limit.
	DefaultMaxRecords = 1 << 16
)

// ErrFull reports an Append refused because the journal holds MaxRecords
// records. The caller's remedy is a checkpoint (persist the model, then
// Reset); callers that cannot checkpoint degrade to unjournaled operation and
// should count the refusals.
var ErrFull = fmt.Errorf("journal: record limit reached (checkpoint and Reset to continue)")

// Record is one journaled observation: the model point and the observed cost.
type Record struct {
	Point []float64
	Value float64
}

// recordSize returns the framed size of a record with the given
// dimensionality: frame header + u8 dims + point + value.
func recordSize(dims int) int { return frame.HeaderLen + 1 + 8*dims + 8 }

// Journal is an open journal file accepting appends. It is not safe for
// concurrent use; the Publisher serializes appends on its Observe path.
type Journal struct {
	f       *os.File
	path    string
	records int
	max     int
	ev      *events.Recorder
	buf     []byte // Append's encoding buffer, reused across calls
}

// Option configures Create.
type Option func(*Journal)

// WithMaxRecords bounds the journal at n records (default DefaultMaxRecords).
func WithMaxRecords(n int) Option {
	return func(j *Journal) {
		if n > 0 {
			j.max = n
		}
	}
}

// WithEvents attaches the causal event spine: each successful Reset emits a
// journal-reset event carrying the number of records the checkpoint dropped.
// Append-level hops stay with the Publisher, which knows each observation's
// causal ID; the journal only reports its own lifecycle.
func WithEvents(rec *events.Recorder) Option {
	return func(j *Journal) { j.ev = rec }
}

// Create opens a fresh journal at path, truncating whatever was there: the
// caller replays any prior journal *before* creating the new one. The parent
// directory is fsynced so the new directory entry is durable immediately — a
// crash right after Create cannot leave a journal that appends succeeded
// against but that never existed on disk.
func Create(path string, opts ...Option) (*Journal, error) {
	j := &Journal{path: path, max: DefaultMaxRecords}
	for _, o := range opts {
		o(j)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", path, err)
	}
	j.f = f
	if err := writeHeader(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// syncDir fsyncs the directory containing path, making the directory entry
// (a create, a rename) itself durable. Filesystems that refuse to fsync a
// directory opened read-only (EINVAL on some network mounts) are tolerated:
// on those the rename durability is whatever the mount provides.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("journal: opening parent dir of %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("journal: syncing parent dir of %s: %w", path, err)
	}
	return nil
}

// writeHeader writes the magic + version header that opens every journal.
func writeHeader(f *os.File) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("journal: writing header to %s: %w", f.Name(), err)
	}
	return nil
}

// Append logs one observation. The frame is issued as a single write so a
// crash tears at most the final record, which Replay's CRC then cuts. The
// write reaches the OS before Append returns, so an append survives process
// death at once; a machine crash can lose the OS-buffered tail, which Close
// and Reset fsync.
func (j *Journal) Append(point []float64, value float64) error {
	if j.records >= j.max {
		return ErrFull
	}
	if len(point) == 0 || len(point) > MaxDims {
		return fmt.Errorf("journal: point has %d dims, want 1..%d", len(point), MaxDims)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("journal: value must be finite, got %g", value)
	}
	b, start := frame.Open(j.buf[:0])
	b = append(b, byte(len(point)))
	for _, v := range point {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	j.buf = frame.Seal(binary.LittleEndian.AppendUint64(b, math.Float64bits(value)), start)
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	j.records++
	return nil
}

// Len returns the number of records appended since Create or the last Reset.
func (j *Journal) Len() int { return j.records }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Reset is the checkpoint: it replaces the journal with an empty one. Call
// it only after the model state covering the journaled observations has been
// made durable (e.g. catalog.SaveFile succeeded) — the records are
// unrecoverable afterwards.
//
// The replacement is truncate-and-recreate, not truncate-in-place: a fresh
// header-only file is written beside the journal, fsynced, renamed over the
// path, and the parent directory is fsynced. The directory fsync is the
// durability point — without it a crash immediately after a checkpoint could
// resurrect the old directory entry, replaying observations the durable
// model already contains (double-applied learning). Recreating also gives
// concurrent tail readers (journal streaming, replica catch-up) a frozen
// file: a reader holding the old inode sees a stable byte stream to its
// final record and detects the rotation via TailReader.Rotated, instead of
// racing a truncation under its read offset.
func (j *Journal) Reset() error {
	tmp := j.path + ".reset"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating %s: %w", tmp, err)
	}
	if err := writeHeader(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: syncing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: renaming %s over %s: %w", tmp, j.path, err)
	}
	if err := syncDir(j.path); err != nil {
		f.Close()
		return err
	}
	old := j.f
	j.f = f
	dropped := j.records
	j.records = 0
	// A checkpoint truncation is healthy (everything dropped is covered by
	// the durable save that preceded it), so it gets a spine event but no
	// flight-recorder dump.
	j.ev.Emit(events.SubJournal, events.KindJournalReset, 0, uint64(dropped), 0)
	if err := old.Close(); err != nil {
		return fmt.Errorf("journal: closing pre-checkpoint file of %s: %w", j.path, err)
	}
	return nil
}

// Close syncs and closes the file. The journal is left on disk: a clean
// shutdown checkpoints (Reset) first, a crash leaves the records for Replay.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: syncing on close: %w", err)
	}
	return j.f.Close()
}

// Replay decodes a journal stream, recovering the valid record prefix.
// Damage — a truncated tail, a flipped bit, an implausible frame — ends the
// replay at the last intact record: the prefix and the number of bytes cut
// are returned with a nil error, because a torn tail is the expected shape of
// a crash, not a failure. Only an unreadable stream or a header that was
// never a journal returns an error.
func Replay(r io.Reader) (recs []Record, truncated int64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: reading stream: %w", err)
	}
	if len(data) < headerSize {
		return nil, 0, fmt.Errorf("journal: stream too short for header (%d bytes)", len(data))
	}
	// Replay is the tail decoder run over the whole stream: a persistent
	// ErrNoRecord on a complete stream is the end of the valid prefix.
	d := TailDecoder{buf: data}
	for {
		rec, err := d.Next()
		if err == ErrNoRecord {
			return recs, int64(d.Buffered()), nil
		}
		if err != nil {
			return nil, 0, err // a header that was never a journal's
		}
		recs = append(recs, rec)
	}
}

// ReplayFile replays the journal at path. A missing file replays empty (no
// journal simply means nothing to recover); any other open error propagates.
func ReplayFile(path string) (recs []Record, truncated int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	defer f.Close()
	return Replay(f)
}
