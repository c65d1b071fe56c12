package nettransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"mlq/internal/events"
	"mlq/internal/frame"
)

// SnapshotSource produces the durable state a cold follower bootstraps
// from: the catalog checkpoint bytes and the current journal suffix.
// replica.Group satisfies it structurally via Group.Snapshot.
type SnapshotSource interface {
	Snapshot() (ckpt, journal []byte, err error)
}

// SetSnapshotSource installs (or, with nil, removes) the snapshot source
// served by an endpoint's bootstrap RPC. Typically the primary's Group.
func (t *NetTransport) SetSnapshotSource(id string, src SnapshotSource) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.boot[id]
	if st == nil {
		st = &bootState{}
		t.boot[id] = st
	}
	st.mu.Lock()
	st.src = src
	st.blob = nil
	st.mu.Unlock()
}

// InvalidateBootstrapCache discards an endpoint's cached snapshot blob, as
// a checkpoint+journal-reset does implicitly: the next bootstrap request —
// including a resume of an in-flight transfer — is told the old snapshot is
// compacted away and must restart as a full resync.
func (t *NetTransport) InvalidateBootstrapCache(id string) {
	t.mu.Lock()
	st := t.boot[id]
	t.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	st.blob = nil
	st.mu.Unlock()
}

// bootState is one endpoint's bootstrap serving state: the snapshot source
// and the cached blob a resumable transfer streams from. The token is the
// blob generation; a resume carrying a stale token gets bootErrCompacted.
type bootState struct {
	mu      sync.Mutex
	src     SnapshotSource
	token   uint64
	blob    []byte
	ckptLen uint64
	crc     uint32
}

// bootMeta mirrors the fmBootstrapMeta frame.
type bootMeta struct {
	token   uint64
	chunks  uint32
	blobLen uint64
	ckptLen uint64
	crc     uint32
}

// serveBootstrap handles one snapshot-shipping request on an accepted
// connection: read the request, resolve it against the cached blob (resume)
// or a fresh snapshot (full transfer), stream meta + chunks. The connection
// dies with the transfer; resume means a new connection with the old token.
func (t *NetTransport) serveBootstrap(ep *endpoint, conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout))
	fr := wireReader(conn)
	p, err := fr.Next()
	if err != nil || len(p) != 13 || p[0] != fmBootstrapReq {
		return
	}
	token := binary.LittleEndian.Uint64(p[1:9])
	fromChunk := binary.LittleEndian.Uint32(p[9:13])

	t.mu.Lock()
	st := t.boot[ep.id]
	t.mu.Unlock()
	if st == nil {
		writeBootErr(conn, bootErrUnavailable, "no snapshot source installed")
		return
	}

	st.mu.Lock()
	if st.src == nil {
		st.mu.Unlock()
		writeBootErr(conn, bootErrUnavailable, "no snapshot source installed")
		return
	}
	if token != 0 && (st.blob == nil || token != st.token) {
		// The blob the client was mid-transfer on is gone (regenerated or
		// invalidated). Resume is impossible; the client must full-resync.
		st.mu.Unlock()
		writeBootErr(conn, bootErrCompacted, "snapshot superseded; restart transfer")
		return
	}
	if token == 0 {
		ckpt, jnl, serr := st.src.Snapshot()
		if serr != nil {
			st.mu.Unlock()
			writeBootErr(conn, bootErrUnavailable, serr.Error())
			return
		}
		blob := make([]byte, 0, len(ckpt)+len(jnl))
		blob = append(blob, ckpt...)
		blob = append(blob, jnl...)
		st.token++
		st.blob = blob
		st.ckptLen = uint64(len(ckpt))
		st.crc = crc32.ChecksumIEEE(blob)
		fromChunk = 0
	}
	meta := bootMeta{
		token:   st.token,
		blobLen: uint64(len(st.blob)),
		ckptLen: st.ckptLen,
		crc:     st.crc,
	}
	blob := st.blob
	st.mu.Unlock()

	chunk := t.cfg.ChunkBytes
	meta.chunks = uint32((len(blob) + chunk - 1) / chunk)
	if meta.chunks == 0 {
		meta.chunks = 1 // an empty blob still ships one empty-tailed chunk table
	}
	mp := make([]byte, 0, 1+8+4+8+8+4)
	mp = append(mp, fmBootstrapMeta)
	mp = appendU64(mp, meta.token)
	mp = binary.LittleEndian.AppendUint32(mp, meta.chunks)
	mp = appendU64(mp, meta.blobLen)
	mp = appendU64(mp, meta.ckptLen)
	mp = binary.LittleEndian.AppendUint32(mp, meta.crc)
	if _, err := conn.Write(frame.Append(nil, mp)); err != nil {
		return
	}
	for i := int(fromChunk); i < int(meta.chunks); i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(blob) {
			hi = len(blob)
		}
		cp := make([]byte, 0, 1+8+4+(hi-lo))
		cp = append(cp, fmBootstrapChunk)
		cp = appendU64(cp, meta.token)
		cp = binary.LittleEndian.AppendUint32(cp, uint32(i))
		cp = append(cp, blob[lo:hi]...)
		if _, err := conn.Write(frame.Append(nil, cp)); err != nil {
			return
		}
	}
}

func writeBootErr(conn net.Conn, code byte, msg string) {
	p := make([]byte, 0, 2+len(msg))
	p = append(p, fmBootstrapErr, code)
	p = append(p, msg...)
	_, _ = conn.Write(frame.Append(nil, p))
}

// BootstrapResult is a completed snapshot transfer: the checkpoint and
// journal bytes, plus the transfer's accounting.
type BootstrapResult struct {
	Ckpt     []byte
	Journal  []byte
	Chunks   int // chunk frames received, re-received ones included
	Resumes  int // connections that continued a partial transfer
	Restarts int // full resyncs forced by a superseded snapshot
}

// errRestartBootstrap signals the server declared our token compacted: drop
// partial progress and full-resync.
var errRestartBootstrap = fmt.Errorf("nettransport: bootstrap snapshot superseded")

// Bootstrap pulls the destination endpoint's snapshot over a dedicated
// socket: chunked, CRC-verified end to end, and resumable — a connection
// killed mid-transfer costs only the tail, the next attempt continues from
// the last good chunk under the same token. A superseded snapshot
// (bootErrCompacted) restarts as a full resync. Attempts are bounded by
// BootstrapAttempts with the same capped backoff the stream dialer uses.
func (t *NetTransport) Bootstrap(from string) (*BootstrapResult, error) {
	res := &BootstrapResult{}
	var (
		token   uint64
		meta    *bootMeta
		chunks  [][]byte
		lastErr error
	)
	for attempt := 0; attempt < t.cfg.BootstrapAttempts; attempt++ {
		if t.isClosed() {
			return nil, errClosed
		}
		if attempt > 0 {
			tm := t.clk.NewTimer(t.backoff(attempt - 1))
			select {
			case <-t.closeCh:
				tm.Stop()
				return nil, errClosed
			case <-tm.C():
			}
		}
		if token != 0 && len(chunks) > 0 {
			res.Resumes++
			t.bootstrapResumes.Add(1)
		}
		err := t.bootstrapOnce(from, &token, &meta, &chunks, res)
		if err == errRestartBootstrap {
			token, meta, chunks = 0, nil, nil
			res.Restarts++
			lastErr = err
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		blob := bytes.Join(chunks, nil)
		if uint64(len(blob)) != meta.blobLen || crc32.ChecksumIEEE(blob) != meta.crc || meta.ckptLen > uint64(len(blob)) {
			// Assembled transfer fails end-to-end verification: poison the
			// token so the next attempt restarts clean.
			token, meta, chunks = 0, nil, nil
			res.Restarts++
			lastErr = fmt.Errorf("nettransport: bootstrap blob failed verification")
			continue
		}
		res.Ckpt = append([]byte(nil), blob[:meta.ckptLen]...)
		res.Journal = append([]byte(nil), blob[meta.ckptLen:]...)
		t.emitBootstrap(from, res)
		return res, nil
	}
	return nil, fmt.Errorf("nettransport: bootstrap from %q failed after %d attempts: %w",
		from, t.cfg.BootstrapAttempts, lastErr)
}

// bootstrapOnce runs one connection's worth of transfer, appending verified
// chunks in order. On return with nil error, all chunks have arrived.
func (t *NetTransport) bootstrapOnce(from string, token *uint64, meta **bootMeta, chunks *[][]byte, res *BootstrapResult) error {
	addr, err := t.addrOf(from)
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	if err := writePreamble(conn, purposeBootstrap); err != nil {
		return err
	}
	req := make([]byte, 0, 13)
	req = append(req, fmBootstrapReq)
	req = appendU64(req, *token)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(*chunks)))
	if _, err := conn.Write(frame.Append(nil, req)); err != nil {
		return err
	}
	fr := wireReader(conn)
	next := func() ([]byte, error) {
		_ = conn.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout))
		return fr.Next()
	}
	p, err := next()
	if err != nil {
		return err
	}
	switch p[0] {
	case fmBootstrapErr:
		if len(p) >= 2 && p[1] == bootErrCompacted {
			return errRestartBootstrap
		}
		return fmt.Errorf("nettransport: bootstrap refused: %s", string(p[2:]))
	case fmBootstrapMeta:
		if len(p) != 1+8+4+8+8+4 {
			return errDamagedFrame
		}
		m := &bootMeta{
			token:   binary.LittleEndian.Uint64(p[1:9]),
			chunks:  binary.LittleEndian.Uint32(p[9:13]),
			blobLen: binary.LittleEndian.Uint64(p[13:21]),
			ckptLen: binary.LittleEndian.Uint64(p[21:29]),
			crc:     binary.LittleEndian.Uint32(p[29:33]),
		}
		if *token != 0 && m.token != *token {
			return errRestartBootstrap
		}
		*token = m.token
		*meta = m
	default:
		return errDamagedFrame
	}
	for len(*chunks) < int((*meta).chunks) {
		p, err := next()
		if err != nil {
			// A damaged chunk frame leaves a gap we cannot fill on this
			// connection (chunks are strictly sequential); treat it like a
			// connection loss and resume from the last good chunk.
			return err
		}
		if len(p) < 13 || p[0] != fmBootstrapChunk {
			return errDamagedFrame
		}
		ctok := binary.LittleEndian.Uint64(p[1:9])
		idx := binary.LittleEndian.Uint32(p[9:13])
		if ctok != *token || int(idx) != len(*chunks) {
			return fmt.Errorf("nettransport: bootstrap chunk out of sequence (got %d want %d)", idx, len(*chunks))
		}
		*chunks = append(*chunks, append([]byte(nil), p[13:]...))
		res.Chunks++
		t.bootstrapChunks.Add(1)
	}
	return nil
}

// emitBootstrap puts a completed bootstrap on the causal spine.
func (t *NetTransport) emitBootstrap(from string, res *BootstrapResult) {
	t.mu.Lock()
	ep := t.eps[from]
	t.mu.Unlock()
	idx := -1
	if ep != nil {
		idx = ep.idx
	}
	t.ev.EmitActor(events.SubReplica, events.KindBootstrap, 0, idx+1, uint64(res.Chunks), uint64(res.Resumes))
}
