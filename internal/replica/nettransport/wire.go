// Package nettransport carries the replication stream over real TCP
// sockets: a drop-in replica.Transport whose loss model matches the
// in-process MemTransport contract — sends never block the primary's accept
// path, a disconnected or overflowing link loses messages and counts them,
// and journal catch-up repairs whatever the stream lost.
//
// The wire format is a versioned magic preamble per connection, then
// internal/frame frames, the framing the journal and the blackbox use. A
// frame whose CRC fails (but whose length was plausible) is counted as
// damaged and skipped; an implausible length means the byte stream itself
// is lost, so the connection is torn down and the reconnect machinery takes
// over. Connections dial lazily and reconnect under capped exponential
// backoff with seeded jitter; heartbeat acks under a read deadline feed
// liveness into Cut(). A cold follower can bootstrap over the same socket:
// a chunked, CRC-verified snapshot RPC that resumes from the last good
// chunk after a mid-transfer kill.
package nettransport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mlq/internal/frame"
	"mlq/internal/geom"
	"mlq/internal/replica"
)

// Wire constants. The magic distinguishes a nettransport socket from any
// other listener a misconfigured peer might dial; the version gates codec
// evolution the same way the journal and blackbox headers do.
const (
	wireMagic   = "MLQN"
	wireVersion = 1

	// purposeStream carries the replication stream; purposeBootstrap carries
	// one snapshot-shipping RPC. Declared in the connection preamble.
	purposeStream    = byte(0)
	purposeBootstrap = byte(1)

	// maxFramePayload bounds a frame's declared payload length. A header
	// whose length exceeds it cannot be trusted (the stream is desynchronized
	// or hostile), and the connection is unrecoverable: unlike a CRC failure,
	// there is no frame boundary left to skip to.
	maxFramePayload = 1 << 20
)

// Frame kinds, the first payload byte of every frame.
const (
	fmMsg            = byte(1) // one replica.Msg (record / term)
	fmBarrier        = byte(2) // drain barrier marker, u64 barrier id
	fmHeartbeat      = byte(3) // liveness probe, u64 seq; peer echoes an ack
	fmHeartbeatAck   = byte(4) // echo of fmHeartbeat
	fmBootstrapReq   = byte(5) // client: u64 token, u32 fromChunk
	fmBootstrapMeta  = byte(6) // server: u64 token, u32 chunks, u64 blobLen, u64 ckptLen, u32 blobCRC
	fmBootstrapChunk = byte(7) // server: u64 token, u32 idx, data
	fmBootstrapErr   = byte(8) // server: u8 code, message text
)

// Bootstrap error codes carried by fmBootstrapErr.
const (
	bootErrCompacted   = byte(1) // snapshot regenerated; resume impossible, full resync
	bootErrUnavailable = byte(2) // no snapshot source installed for the endpoint
)

// errDamagedFrame reports a frame whose payload passed its CRC but decoded
// to garbage: the frame is lost but the stream is still aligned, so the
// reader counts it and continues, as it does a frame.ErrChecksum.
var errDamagedFrame = fmt.Errorf("nettransport: damaged frame (payload mismatch)")

// errStreamLost reports a bad preamble: the peer does not speak this wire,
// so the connection must die.
var errStreamLost = fmt.Errorf("nettransport: byte stream lost framing")

// writePreamble stamps a fresh connection with magic, version and purpose.
func writePreamble(w io.Writer, purpose byte) error {
	var b [6]byte
	copy(b[:4], wireMagic)
	b[4] = wireVersion
	b[5] = purpose
	_, err := w.Write(b[:])
	return err
}

// readPreamble validates the peer's preamble and returns its purpose.
func readPreamble(r io.Reader) (byte, error) {
	var b [6]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if string(b[:4]) != wireMagic {
		return 0, fmt.Errorf("%w: bad magic %q", errStreamLost, b[:4])
	}
	if b[4] != wireVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", errStreamLost, b[4])
	}
	return b[5], nil
}

// appendMsgFrame appends m as one fmMsg frame.
func appendMsgFrame(dst []byte, m replica.Msg) []byte {
	dst, start := frame.Open(dst)
	return frame.Seal(appendMsg(dst, m), start)
}

// appendU64Frame appends one of the one-u64 control frames (barrier,
// heartbeats).
func appendU64Frame(dst []byte, kind byte, v uint64) []byte {
	dst, start := frame.Open(dst)
	return frame.Seal(appendU64(append(dst, kind), v), start)
}

// wireReader reads the wire's frames off r. A frame.ErrChecksum leaves the
// stream aligned, so the caller counts the frame and reads on; a
// frame.ErrLength — an empty or oversized frame — means no frame boundary
// survives, and the connection must die.
func wireReader(r io.Reader) *frame.Reader {
	return &frame.Reader{R: r, Min: 1, Max: maxFramePayload}
}

// encodeMsg serializes a stream message as an fmMsg frame payload. Barrier
// messages are not data-plane traffic and have their own frame kind.
func encodeMsg(m replica.Msg) []byte {
	return appendMsg(nil, m)
}

// appendMsg appends m's fmMsg frame payload to b.
func appendMsg(b []byte, m replica.Msg) []byte {
	switch m.Kind {
	case replica.KindRecord:
		rec := m.Rec
		b = append(b, fmMsg, byte(replica.KindRecord))
		b = appendU64(b, rec.Seq)
		b = appendU64(b, rec.Term)
		b = appendU64(b, math.Float64bits(rec.Value))
		b = appendU64(b, rec.Cause)
		b = appendU64(b, uint64(rec.MintNS))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Point)))
		for _, c := range rec.Point {
			b = appendU64(b, math.Float64bits(c))
		}
		return b
	default: // KindTerm
		b = append(b, fmMsg, byte(replica.KindTerm))
		b = appendU64(b, m.Term)
		return appendU64(b, m.Seq)
	}
}

// maxPointDims bounds a record's decoded dimensionality: far above any real
// model, low enough that a corrupt-but-CRC-colliding length cannot ask for
// an absurd allocation.
const maxPointDims = 256

// decodeMsg parses an fmMsg frame payload (including the leading frame-kind
// byte). Any structural mismatch is an error: a frame that passed its CRC
// but does not parse exactly is still damage, never a Msg.
func decodeMsg(p []byte) (replica.Msg, error) {
	if len(p) < 2 || p[0] != fmMsg {
		return replica.Msg{}, errDamagedFrame
	}
	kind := replica.MsgKind(p[1])
	body := p[2:]
	switch kind {
	case replica.KindRecord:
		if len(body) < 8*5+2 {
			return replica.Msg{}, errDamagedFrame
		}
		rec := replica.Record{
			Seq:    binary.LittleEndian.Uint64(body[0:8]),
			Term:   binary.LittleEndian.Uint64(body[8:16]),
			Value:  math.Float64frombits(binary.LittleEndian.Uint64(body[16:24])),
			Cause:  binary.LittleEndian.Uint64(body[24:32]),
			MintNS: int64(binary.LittleEndian.Uint64(body[32:40])),
		}
		dims := int(binary.LittleEndian.Uint16(body[40:42]))
		rest := body[42:]
		if dims > maxPointDims || len(rest) != 8*dims {
			return replica.Msg{}, errDamagedFrame
		}
		rec.Point = make(geom.Point, dims)
		for i := 0; i < dims; i++ {
			rec.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i : 8*i+8]))
		}
		return replica.Msg{Kind: replica.KindRecord, Rec: rec}, nil
	case replica.KindTerm:
		if len(body) != 8*2 {
			return replica.Msg{}, errDamagedFrame
		}
		return replica.Msg{
			Kind: replica.KindTerm,
			Term: binary.LittleEndian.Uint64(body[0:8]),
			Seq:  binary.LittleEndian.Uint64(body[8:16]),
		}, nil
	default:
		return replica.Msg{}, errDamagedFrame
	}
}

// decodeU64Frame parses a one-u64 control frame body.
func decodeU64Frame(p []byte) (uint64, error) {
	if len(p) != 9 {
		return 0, errDamagedFrame
	}
	return binary.LittleEndian.Uint64(p[1:9]), nil
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
