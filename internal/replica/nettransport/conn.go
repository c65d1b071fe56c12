package nettransport

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mlq/internal/events"
	"mlq/internal/frame"
	"mlq/internal/replica"
)

// outMark is a barrier or flush marker in a destination's pending buffer;
// off is the number of pending bytes ahead of it. A barrier's frame starts
// at off. A flush marker carries no bytes: its waiter is released once the
// off bytes ahead of it are on the socket.
type outMark struct {
	off     int
	barrier *pendingBarrier
	flush   chan struct{}
}

// connMgr owns the single outbound connection to one destination: a
// bounded pending buffer the senders encode frames into without blocking,
// a writer goroutine that dials lazily and reconnects under capped
// exponential backoff, and an ack reader whose heartbeat misses tear a
// silently dead link down. The pending buffer persists across reconnects —
// frames enqueued while the link is down ride the next connection; only
// overflow and explicit drains (FlushHeld on a dead link, Close) lose them,
// counted.
type connMgr struct {
	t     *NetTransport
	dst   string
	epIdx int
	// wake holds a token once the pending buffer has gone from empty to
	// non-empty since the writer last took it.
	wake chan struct{}

	mu        sync.Mutex
	conn      net.Conn
	gen       uint64
	upFlag    bool
	dialFails int
	pending   []byte    // framed records and barriers, in send order
	marks     []outMark // the barrier and flush markers among them, by offset
	queued    int       // frames in pending, at most QueueCapacity

	lastMisses atomic.Int64
}

// mgrLocked returns (creating on first use) the destination's connection
// manager. Caller holds t.mu. The endpoint for dst must already exist.
func (t *NetTransport) mgrLocked(dst string, epIdx int) *connMgr {
	if m := t.mgrs[dst]; m != nil {
		return m
	}
	m := &connMgr{t: t, dst: dst, epIdx: epIdx, wake: make(chan struct{}, 1)}
	t.mgrs[dst] = m
	t.wg.Add(1)
	go m.run()
	return m
}

// up reports whether the link is currently established.
func (m *connMgr) up() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.upFlag
}

// suspect is the liveness evidence behind Cut: two consecutive failed dials
// after a connection loss. A single failure (one chaos reset mid-dial) does
// not condemn a peer; an idle, never-dialed destination is reachable.
func (m *connMgr) suspect() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dialFails >= 2
}

// closeConn severs the live connection (if any) out from under the writer;
// its next write fails and the reconnect loop takes over.
func (m *connMgr) closeConn() {
	m.mu.Lock()
	c := m.conn
	m.conn = nil
	m.upFlag = false
	m.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// run is the writer goroutine: establish, stream, tear down, repeat.
func (m *connMgr) run() {
	defer m.t.wg.Done()
	var hbSeq uint64
	for {
		conn, gen, ok := m.ensureConn()
		if !ok {
			m.drainQueue()
			return
		}
		dead := make(chan struct{})
		m.t.wg.Add(1)
		go m.ackReader(conn, dead)
		m.writeLoop(conn, gen, dead, &hbSeq)
		m.teardown(conn, gen)
		if m.t.isClosed() {
			m.drainQueue()
			return
		}
	}
}

// ensureConn dials the destination until it succeeds, backing off
// exponentially (capped, seeded jitter) between attempts, and parking
// politely while the destination is administratively partitioned. Returns
// ok=false when the transport closes.
func (m *connMgr) ensureConn() (net.Conn, uint64, bool) {
	for attempt := 0; ; attempt++ {
		if m.t.isClosed() {
			return nil, 0, false
		}
		if m.t.partitionedTo(m.dst) {
			tm := m.t.clk.NewTimer(m.t.cfg.BackoffBase * 4)
			select {
			case <-m.t.closeCh:
				tm.Stop()
				return nil, 0, false
			case <-m.t.healSignal():
				tm.Stop()
			case <-tm.C():
			}
			attempt = 0
			continue
		}
		if conn, gen, ok := m.dialOnce(); ok {
			return conn, gen, true
		}
		tm := m.t.clk.NewTimer(m.t.backoff(attempt))
		select {
		case <-m.t.closeCh:
			tm.Stop()
			return nil, 0, false
		case <-tm.C():
		}
	}
}

// dialOnce makes one connection attempt and records the liveness evidence.
func (m *connMgr) dialOnce() (net.Conn, uint64, bool) {
	addr, err := m.t.addrOf(m.dst)
	if err == nil {
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, m.t.cfg.DialTimeout)
		if err == nil {
			if perr := writePreamble(conn, purposeStream); perr == nil {
				m.mu.Lock()
				m.conn = conn
				m.upFlag = true
				m.dialFails = 0
				m.gen++
				gen := m.gen
				m.mu.Unlock()
				if gen > 1 {
					m.t.reconnects.Add(1)
				}
				m.t.emitConn(events.KindConnUp, m.epIdx, uint64(m.t.reconnects.Load()), gen)
				return conn, gen, true
			}
			_ = conn.Close()
		}
	}
	m.mu.Lock()
	m.dialFails++
	m.mu.Unlock()
	return nil, 0, false
}

// enqueueMsg frames msg into the pending buffer. It reports false, queuing
// nothing, when QueueCapacity frames are already pending.
func (m *connMgr) enqueueMsg(msg replica.Msg) bool {
	m.mu.Lock()
	if m.queued >= m.t.cfg.QueueCapacity {
		m.mu.Unlock()
		return false
	}
	idle := m.idleLocked()
	m.pending = appendMsgFrame(m.pending, msg)
	m.queued++
	m.mu.Unlock()
	m.wakeIf(idle)
	return true
}

// enqueueBarrier frames a barrier marker behind everything pending. It
// reports false, queuing nothing, when QueueCapacity frames are already
// pending.
func (m *connMgr) enqueueBarrier(pb *pendingBarrier) bool {
	m.mu.Lock()
	if m.queued >= m.t.cfg.QueueCapacity {
		m.mu.Unlock()
		return false
	}
	idle := m.idleLocked()
	m.marks = append(m.marks, outMark{off: len(m.pending), barrier: pb})
	m.pending = appendU64Frame(m.pending, fmBarrier, pb.id)
	m.queued++
	m.mu.Unlock()
	m.wakeIf(idle)
	return true
}

// enqueueFlush places a flush marker behind everything pending; the writer
// closes done once those bytes are on the socket, a drain closes it at
// once.
func (m *connMgr) enqueueFlush(done chan struct{}) {
	m.mu.Lock()
	idle := m.idleLocked()
	m.marks = append(m.marks, outMark{off: len(m.pending), flush: done})
	m.mu.Unlock()
	m.wakeIf(idle)
}

// idleLocked reports whether the pending buffer is empty, so that whoever
// fills it must wake the writer. Caller holds m.mu.
func (m *connMgr) idleLocked() bool {
	return len(m.pending) == 0 && len(m.marks) == 0
}

// wakeIf wakes the writer when the caller filled an empty pending buffer.
// The token persists, so a writer busy writing or redialing finds it next.
func (m *connMgr) wakeIf(idle bool) {
	if !idle {
		return
	}
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// take hands the pending buffer, its markers and its frame count to the
// caller, and leaves the emptied buf and marks, which the caller owns, in
// their place.
func (m *connMgr) take(buf []byte, marks []outMark) ([]byte, []outMark, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	frames := m.queued
	buf, m.pending = m.pending, buf[:0]
	marks, m.marks = m.marks, marks[:0]
	m.queued = 0
	return buf, marks, frames
}

// requeue puts the unwritten tail of a taken batch back in front of the
// pending buffer, so it rides the next connection; marks' offsets are
// relative to rest. It copies both, so the caller may reuse them.
func (m *connMgr) requeue(rest []byte, marks []outMark) {
	frames := 0
	for off := 0; off < len(rest); off += frame.Len(rest[off:]) {
		frames++
	}
	m.mu.Lock()
	for i := range m.marks {
		m.marks[i].off += len(rest)
	}
	m.pending = append(append(make([]byte, 0, len(rest)+len(m.pending)), rest...), m.pending...)
	m.marks = append(append(make([]outMark, 0, len(marks)+len(m.marks)), marks...), m.marks...)
	m.queued += frames
	m.mu.Unlock()
	m.wakeIf(true)
}

// coalesceBytes bounds how many bytes of pending frames writeLoop hands to
// one socket write: a few dozen record frames, well under a loopback or
// LAN send buffer.
const coalesceBytes = 4 << 10

// writeLoop streams pending frames and periodic heartbeats until the
// connection dies, the ack reader declares it dead, or the transport
// closes. Woken by the first frame or marker to land in an empty pending
// buffer, it takes everything pending at once, swapping in the buffer it
// wrote last time, and writes the batch in chunks (writeBatch). Senders
// keep filling the other buffer meanwhile, so the writer wakes once per
// batch, not once per frame.
func (m *connMgr) writeLoop(conn net.Conn, gen uint64, dead chan struct{}, hbSeq *uint64) {
	hb := m.t.clk.NewTimer(m.t.cfg.HeartbeatEvery)
	defer func() { hb.Stop() }()
	var (
		spare      []byte
		spareMarks []outMark
		hbFrame    []byte
	)
	for {
		select {
		case <-m.wake:
			batch, marks, _ := m.take(spare, spareMarks)
			ok := m.writeBatch(conn, gen, batch, marks)
			clear(marks)
			spare, spareMarks = batch, marks
			if !ok {
				return
			}
		case <-hb.C():
			hb = m.t.clk.NewTimer(m.t.cfg.HeartbeatEvery)
			*hbSeq++
			hbFrame = appendU64Frame(hbFrame[:0], fmHeartbeat, *hbSeq)
			if _, err := conn.Write(hbFrame); err != nil {
				return
			}
		case <-dead:
			return
		case <-m.t.closeCh:
			return
		}
	}
}

// writeBatch writes a taken batch in chunks of about coalesceBytes, cut at
// frame boundaries; the wire format is unchanged and send order is kept,
// barrier frames included. Each barrier is stamped with the connection
// generation before the chunk carrying it is written, so teardown's sweep
// can recover the barriers this exact connection loses. Each flush marker
// is released once the bytes ahead of it are written, and in exactly one
// place. When a write fails, the failed chunk is lost with the connection
// (its flush markers are released, its barriers left to the sweep) and the
// rest of the batch is requeued. Reports whether every write succeeded.
func (m *connMgr) writeBatch(conn net.Conn, gen uint64, batch []byte, marks []outMark) bool {
	done := 0 // marks[:done] are handled
	for s := 0; s < len(batch); {
		e := s
		for e < len(batch) && e-s < coalesceBytes {
			e += frame.Len(batch[e:])
		}
		j := done
		for ; j < len(marks) && marks[j].off < e; j++ {
			if pb := marks[j].barrier; pb != nil {
				m.t.stampBarrier(pb, gen)
			}
		}
		_, err := conn.Write(batch[s:e])
		releaseFlushes(marks[done:j])
		done = j
		if err != nil {
			if rest := marks[done:]; e < len(batch) || len(rest) > 0 {
				for i := range rest {
					rest[i].off -= e
				}
				m.requeue(batch[e:], rest)
			}
			return false
		}
		s = e
	}
	releaseFlushes(marks[done:])
	return true
}

// releaseFlushes closes the flush markers among marks.
func releaseFlushes(marks []outMark) {
	for _, mk := range marks {
		if mk.flush != nil {
			//lint:ignore chanowner a flush marker is taken from the pending buffer exactly once; the taker (writer or drain) is its one closing owner
			close(mk.flush)
		}
	}
}

// ackReader consumes heartbeat acks under a per-read deadline. Each expired
// window without any inbound frame is a miss; HeartbeatMiss consecutive
// misses declare the link silently dead and close it (the writer's next
// write fails and reconnect begins).
func (m *connMgr) ackReader(conn net.Conn, dead chan struct{}) {
	defer m.t.wg.Done()
	defer close(dead)
	fr := wireReader(conn)
	misses := 0
	window := m.t.cfg.HeartbeatEvery * 3 / 2
	for {
		_ = conn.SetReadDeadline(time.Now().Add(window))
		p, err := fr.Next()
		if err == frame.ErrChecksum {
			m.t.frameDamaged()
			continue
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				misses++
				m.t.heartbeatsMissed.Add(1)
				m.lastMisses.Store(int64(misses))
				if misses >= m.t.cfg.HeartbeatMiss {
					_ = conn.Close()
					return
				}
				continue
			}
			return
		}
		if len(p) > 0 && p[0] == fmHeartbeatAck {
			misses = 0
			m.lastMisses.Store(0)
		}
	}
}

// teardown closes a dead connection, sweeps the barriers that died with it,
// and reports the link loss.
func (m *connMgr) teardown(conn net.Conn, gen uint64) {
	_ = conn.Close()
	m.mu.Lock()
	if m.conn == conn {
		m.conn = nil
	}
	m.upFlag = false
	m.mu.Unlock()
	m.t.sweepBarriers(m.dst, gen)
	m.t.emitConn(events.KindConnDown, m.epIdx, uint64(m.lastMisses.Load()), gen)
	m.lastMisses.Store(0)
}

// drainQueue empties the pending buffer as counted losses: data frames are
// Dropped, barriers deliver locally (never lost), flush markers release
// their waiters.
func (m *connMgr) drainQueue() {
	_, marks, frames := m.take(nil, nil)
	releaseFlushes(marks)
	for _, mk := range marks {
		if mk.barrier == nil {
			continue
		}
		frames--
		if pb := m.t.claimBarrier(mk.barrier.id); pb != nil {
			m.t.deliverBarrierLocal(pb)
		}
	}
	m.t.dropped.Add(int64(frames))
}

// partitionedTo reports the administrative cut state for a destination.
func (t *NetTransport) partitionedTo(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cut[id]
}

// endpoint is one replica's receive side: a loopback listener, an accept
// loop, and the inbox Register returned. Inbound stream connections decode
// frames into the inbox; inbound bootstrap connections are served by the
// snapshot RPC.
type endpoint struct {
	t    *NetTransport
	id   string
	idx  int
	done chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	lnErr  error
	addr   string
	inbox  chan replica.Msg
	closed bool
	mute   bool
}

// setMute is a test hook: a muted endpoint stops acking heartbeats, so
// liveness tests can simulate a silently wedged peer without killing the
// TCP connection.
func (ep *endpoint) setMute(v bool) {
	ep.mu.Lock()
	ep.mute = v
	ep.mu.Unlock()
}

// MuteEndpoint silences (or restores) heartbeat acks from an endpoint —
// the connection stays open but goes deaf, exactly the failure heartbeats
// exist to detect. Test hook.
func (t *NetTransport) MuteEndpoint(id string, mute bool) {
	t.mu.Lock()
	ep := t.eps[id]
	t.mu.Unlock()
	if ep != nil {
		ep.setMute(mute)
	}
}

func (ep *endpoint) muted() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.mute
}

func (ep *endpoint) isClosed() bool {
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// acceptLoop admits connections until the listener closes. Transient accept
// errors (a chaos reset racing the handshake) back off briefly and retry.
func (ep *endpoint) acceptLoop() {
	defer ep.t.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			if ep.isClosed() || ep.t.isClosed() {
				return
			}
			tm := ep.t.clk.NewTimer(time.Millisecond)
			select {
			case <-ep.done:
				tm.Stop()
				return
			case <-tm.C():
			}
			continue
		}
		ep.t.wg.Add(1)
		go ep.serveConn(conn)
	}
}

// serveConn reads the preamble and dispatches to the stream or bootstrap
// handler. A reaper goroutine severs the connection when the endpoint
// closes, so blocked reads cannot outlive the transport.
func (ep *endpoint) serveConn(conn net.Conn) {
	defer ep.t.wg.Done()
	defer func() { _ = conn.Close() }()
	served := make(chan struct{})
	defer close(served)
	ep.t.wg.Add(1)
	go func() {
		defer ep.t.wg.Done()
		select {
		case <-ep.done:
			_ = conn.Close()
		case <-served:
		}
	}()
	_ = conn.SetReadDeadline(time.Now().Add(ep.t.cfg.ReadIdleTimeout))
	purpose, err := readPreamble(conn)
	if err != nil {
		return
	}
	switch purpose {
	case purposeStream:
		ep.streamLoop(conn)
	case purposeBootstrap:
		ep.t.serveBootstrap(ep, conn)
	}
}

// streamLoop decodes replication frames into the inbox. Damaged frames are
// counted and skipped (the stream stays aligned); a lost stream or an idle
// timeout kills the connection and the dialer re-establishes it.
func (ep *endpoint) streamLoop(conn net.Conn) {
	// Buffered: one read syscall fetches every frame of a chunk, and only
	// a read that reaches the socket arms the idle deadline.
	fr := wireReader(bufio.NewReader(idleReader{conn: conn, idle: ep.t.cfg.ReadIdleTimeout}))
	//lint:ignore boundedretry skipping a damaged frame is not a retry: the frame's bytes are consumed, and every read that reaches the socket arms the idle deadline inside idleReader
	for {
		p, err := fr.Next()
		if err == frame.ErrChecksum {
			ep.t.frameDamaged()
			continue
		}
		if err != nil {
			return
		}
		switch p[0] {
		case fmMsg:
			m, derr := decodeMsg(p)
			if derr != nil {
				ep.t.frameDamaged()
				continue
			}
			ep.deliver(m)
		case fmBarrier:
			id, derr := decodeU64Frame(p)
			if derr != nil {
				ep.t.frameDamaged()
				continue
			}
			if pb := ep.t.claimBarrier(id); pb != nil {
				ep.deliverBarrier(pb)
			}
		case fmHeartbeat:
			seq, derr := decodeU64Frame(p)
			if derr != nil {
				ep.t.frameDamaged()
				continue
			}
			if ep.muted() {
				continue
			}
			if _, werr := conn.Write(appendU64Frame(nil, fmHeartbeatAck, seq)); werr != nil {
				return
			}
		default:
			ep.t.frameDamaged()
		}
	}
}

// idleReader arms the connection's idle deadline before every read it
// passes on. Under streamLoop's bufio.Reader, that is before each read
// that can block — when the buffered bytes do not hold the next whole
// frame — so a silent link dies after idle, while frames already buffered
// are decoded without touching the deadline, and a busy link survives
// even when its frames are split across reads.
type idleReader struct {
	conn net.Conn
	idle time.Duration
}

func (r idleReader) Read(p []byte) (int, error) {
	_ = r.conn.SetReadDeadline(time.Now().Add(r.idle))
	return r.conn.Read(p)
}

// deliver enqueues a data-plane message nonblocking: a full inbox overflows
// (counted), a closed endpoint drops — the receiver pump must never be able
// to stall the socket reader into backpressuring the primary.
func (ep *endpoint) deliver(m replica.Msg) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		ep.t.dropped.Add(1)
		return
	}
	select {
	case ep.inbox <- m:
		ep.t.delivered.Add(1)
	default:
		ep.t.overflowed.Add(1)
	}
}

// deliverBarrier enqueues a claimed barrier, blocking: barriers are never
// lost, and the receiving pump is by contract always draining. Holding
// ep.mu across the send keeps a concurrent inbox close from racing the
// enqueue; the pump consumes without ep.mu, so the send terminates.
func (ep *endpoint) deliverBarrier(pb *pendingBarrier) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		//lint:ignore chanowner the claim table hands each barrier to exactly one closer; this path owns pb after claiming it
		close(pb.done)
		return
	}
	//lint:ignore chanowner barrier delivery must block rather than drop; the claim table makes this send exactly-once and the pump drains without ep.mu
	ep.inbox <- pb.msg
	ep.t.delivered.Add(1)
	ep.mu.Unlock()
}

// close shuts the endpoint: inbox closed (pumps drain and exit), listener
// closed (accept loop exits), live server connections reaped.
func (ep *endpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ln := ep.ln
	close(ep.inbox)
	ep.mu.Unlock()
	close(ep.done)
	if ln != nil {
		_ = ln.Close()
	}
}
