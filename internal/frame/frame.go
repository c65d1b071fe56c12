// Package frame owns the one record framing every binary format in this
// repository shares — the observation journal, the replication wire, the
// black-box dump and the model catalog:
//
//	len u32 | crc u32 (CRC-32 IEEE of payload) | payload    (little-endian)
//
// A frame carries no magic or version of its own: each format writes its
// own header around its frames, and each decides what damage means. Parse
// and Reader only classify it — ErrShort, ErrLength or ErrChecksum — so the
// journal can hold position, the wire can skip a frame or drop the link,
// the dump can count and stop, and the catalog can resync on its own magic.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// HeaderLen is the size of a frame header: payload length and checksum.
const HeaderLen = 8

var (
	// ErrShort reports bytes that end before the frame does: a torn write,
	// or a frame the writer has not finished yet.
	ErrShort = errors.New("frame: incomplete frame")
	// ErrLength reports a declared payload length outside the caller's
	// bounds. No frame boundary can be trusted after it.
	ErrLength = errors.New("frame: implausible length")
	// ErrChecksum reports a payload that fails its CRC. Its length was
	// plausible, so the next frame starts right after it.
	ErrChecksum = errors.New("frame: checksum mismatch")
)

// Open appends a header placeholder to dst and returns where the frame
// starts. The caller appends the payload and calls Seal, so a payload is
// framed where it is encoded, without a buffer of its own.
func Open(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, HeaderLen)...), len(dst)
}

// Seal fills in the header of the frame that starts at dst[start] and runs
// to the end of dst.
func Seal(dst []byte, start int) []byte {
	payload := dst[start+HeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Append appends payload to dst as one frame.
func Append(dst, payload []byte) []byte {
	dst, start := Open(dst)
	return Seal(append(dst, payload...), start)
}

// Len returns the length, header included, of the frame at the start of b.
// b must hold a frame this program sealed, never bytes from outside.
func Len(b []byte) int {
	return HeaderLen + int(binary.LittleEndian.Uint32(b))
}

// Parse checks the frame at the head of b, whose payload length must lie in
// [min, max]. It returns the payload, which aliases b, and the frame's
// length with its header. On ErrChecksum n is still the frame's length, so
// a caller that skips damaged frames knows where the next one starts; on
// ErrShort and ErrLength n is 0.
func Parse(b []byte, min, max int) (payload []byte, n int, err error) {
	if len(b) < HeaderLen {
		return nil, 0, ErrShort
	}
	size := int64(binary.LittleEndian.Uint32(b))
	if size < int64(min) || size > int64(max) {
		return nil, 0, ErrLength
	}
	if size > int64(len(b)-HeaderLen) {
		return nil, 0, ErrShort
	}
	n = HeaderLen + int(size)
	payload = b[HeaderLen:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, n, ErrChecksum
	}
	return payload, n, nil
}

// Reader reads frames off a stream whose payload lengths must lie in
// [Min, Max], reusing one buffer.
type Reader struct {
	R        io.Reader
	Min, Max int

	hdr [HeaderLen]byte
	buf []byte
}

// Next reads one frame and returns its payload, valid until the next call.
// It returns io.EOF when the stream ends between frames, ErrShort when it
// ends inside one, ErrLength or ErrChecksum as Parse does — after
// ErrChecksum the reader sits at the next frame — and any other error of
// the underlying reader as it is.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.R, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrShort
		}
		return nil, err
	}
	size := int64(binary.LittleEndian.Uint32(r.hdr[:]))
	if size < int64(r.Min) || size > int64(r.Max) {
		return nil, ErrLength
	}
	if int64(cap(r.buf)) < size {
		r.buf = make([]byte, size)
	}
	payload := r.buf[:size]
	if _, err := io.ReadFull(r.R, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = ErrShort
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(r.hdr[4:]) {
		return nil, ErrChecksum
	}
	return payload, nil
}
