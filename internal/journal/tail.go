package journal

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"mlq/internal/frame"
)

// ErrNoRecord reports that the stream holds no complete, valid record at the
// current position. For a tail-follow reader this is the steady state, not a
// failure: the writer may still be mid-append (a frame header without its
// payload, a payload without its final bytes, a CRC that does not match the
// bytes written so far), so the reader keeps its position and asks again
// after the tail grows. Permanent damage is indistinguishable from an
// in-progress append by looking at the bytes alone; callers that know the
// journal is quiescent (a crash recovery, a post-barrier catch-up) treat a
// persistent ErrNoRecord as the end of the valid prefix — exactly Replay's
// torn-tail semantics, delivered incrementally.
var ErrNoRecord = fmt.Errorf("journal: no complete record at the tail")

// ErrRotated reports a TailReader whose underlying file was replaced by a
// checkpoint (Reset) after the reader opened it. The reader's inode is
// frozen; the caller reopens at the path to follow the new journal, after
// deciding what the rotation means (for replica catch-up: the records it was
// streaming are now covered by a durable checkpoint).
var ErrRotated = fmt.Errorf("journal: file was rotated by a checkpoint")

// TailDecoder incrementally decodes the record stream of a journal,
// byte-chunk by byte-chunk: it emits exactly the valid record prefix and
// never advances past a frame that is incomplete or damaged. It is the
// journal's one frame decoder; Replay runs it over a whole stream. Feed it
// bytes in any fragmentation — it buffers the unconsumed tail. The zero
// value expects the stream to begin with the journal header; a decoder for
// a headerless record stream is not provided (a journal always has one).
type TailDecoder struct {
	buf       []byte
	headerOK  bool
	headerErr error
}

// Feed appends bytes to the undecoded tail.
func (d *TailDecoder) Feed(p []byte) { d.buf = append(d.buf, p...) }

// Buffered returns how many undecoded bytes the decoder is holding.
func (d *TailDecoder) Buffered() int { return len(d.buf) }

// Next decodes the next record from the buffered bytes. It returns
// ErrNoRecord when the buffer does not (yet) hold one complete valid frame —
// feed more bytes and retry. A header that was never a journal's is a
// permanent error, returned on this and every later call.
func (d *TailDecoder) Next() (Record, error) {
	if d.headerErr != nil {
		return Record{}, d.headerErr
	}
	if !d.headerOK {
		if len(d.buf) < headerSize {
			return Record{}, ErrNoRecord
		}
		if m := binary.LittleEndian.Uint32(d.buf[0:4]); m != magic {
			d.headerErr = fmt.Errorf("journal: bad magic %#x", m)
			return Record{}, d.headerErr
		}
		if v := binary.LittleEndian.Uint32(d.buf[4:8]); v != version {
			d.headerErr = fmt.Errorf("journal: unsupported version %d", v)
			return Record{}, d.headerErr
		}
		d.buf = d.buf[headerSize:]
		d.headerOK = true
	}
	payload, n, err := frame.Parse(d.buf, 1+8+8, recordSize(MaxDims)-frame.HeaderLen)
	if err != nil {
		// Every frame error holds position. An implausible size can never
		// complete into a valid record, but it is also what a torn frame
		// header looks like mid-write, so the decoder does not condemn the
		// stream.
		return Record{}, ErrNoRecord
	}
	dims := int(payload[0])
	if dims == 0 || 1+8*dims+8 != len(payload) {
		return Record{}, ErrNoRecord
	}
	rec := Record{Point: make([]float64, dims)}
	for i := 0; i < dims; i++ {
		rec.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[1+8*i:]))
	}
	rec.Value = math.Float64frombits(binary.LittleEndian.Uint64(payload[1+8*dims:]))
	d.buf = d.buf[n:]
	return rec, nil
}

// TailReader streams records from a journal file as they are appended: a
// follower replica (or any log consumer) opens the primary's journal and
// calls Next repeatedly, getting ErrNoRecord whenever it has consumed
// everything durable so far. The reader holds its own file descriptor, so it
// never perturbs the writer; a checkpoint (Reset) rotates the file under the
// path, which Next reports as ErrRotated once the frozen old inode is fully
// consumed.
type TailReader struct {
	f    *os.File
	path string
	dec  TailDecoder
	rbuf []byte
}

// OpenTail opens a tail-follow reader on the journal at path.
func OpenTail(path string) (*TailReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s for tailing: %w", path, err)
	}
	return &TailReader{f: f, path: path, rbuf: make([]byte, 32*1024)}, nil
}

// Close releases the reader's file descriptor.
func (t *TailReader) Close() error { return t.f.Close() }

// Rotated reports whether the path no longer names the inode this reader is
// consuming — i.e. a checkpoint replaced the journal after OpenTail.
func (t *TailReader) Rotated() bool {
	cur, err := os.Stat(t.path)
	if err != nil {
		return true // the path is gone entirely; the inode is certainly stale
	}
	mine, err := t.f.Stat()
	if err != nil {
		return true
	}
	return !os.SameFile(cur, mine)
}

// Next returns the next record. ErrNoRecord means the reader has consumed
// every complete record written so far — retry after the journal grows.
// ErrRotated means the file was checkpointed away and its frozen tail is
// fully consumed: reopen at the path to follow the successor journal.
func (t *TailReader) Next() (Record, error) {
	if rec, err := t.dec.Next(); err == nil {
		return rec, nil
	} else if err != ErrNoRecord {
		return Record{}, err
	}
	// Buffer exhausted: pull whatever the file has grown by.
	grew := false
	for {
		n, err := t.f.Read(t.rbuf)
		if n > 0 {
			t.dec.Feed(t.rbuf[:n])
			grew = true
		}
		if err != nil || n == 0 {
			break // EOF or a read error: decode what we have
		}
	}
	if grew {
		if rec, err := t.dec.Next(); err == nil {
			return rec, nil
		} else if err != ErrNoRecord {
			return Record{}, err
		}
	}
	if t.Rotated() {
		return Record{}, ErrRotated
	}
	return Record{}, ErrNoRecord
}

// SkipRecords consumes and discards n records, positioning the reader for a
// suffix read (replica catch-up skips the records it already applied). It
// returns how many records were actually skipped — fewer than n when the
// journal does not (yet) hold that many.
func (t *TailReader) SkipRecords(n int) (int, error) {
	skipped := 0
	for skipped < n {
		_, err := t.Next()
		if err == ErrNoRecord || err == ErrRotated {
			return skipped, err
		}
		if err != nil {
			return skipped, err
		}
		skipped++
	}
	return skipped, nil
}
