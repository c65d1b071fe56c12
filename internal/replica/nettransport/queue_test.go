package nettransport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mlq/internal/replica"
)

// orderPump drains an inbox the way a replica pump does, closing each
// barrier, and records what a live link must preserve: the record seqs in
// arrival order and, for each barrier, how many records preceded it.
type orderPump struct {
	mu        sync.Mutex
	seqs      []uint64
	atBarrier []int
	done      chan struct{}
}

func startPump(inbox <-chan replica.Msg) *orderPump {
	p := &orderPump{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for m := range inbox {
			p.mu.Lock()
			if ch, ok := m.BarrierChan(); ok {
				p.atBarrier = append(p.atBarrier, len(p.seqs))
				close(ch)
			} else {
				p.seqs = append(p.seqs, m.Rec.Seq)
			}
			p.mu.Unlock()
		}
	}()
	return p
}

func (p *orderPump) records() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seqs)
}

// check requires the records 1..n in order, once each, and a barrier
// after exactly the records sent before each Barrier call.
func (p *orderPump) check(t *testing.T, n int, wantAtBarrier []int) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.seqs) != n {
		t.Fatalf("follower saw %d records, want %d", len(p.seqs), n)
	}
	for i, s := range p.seqs {
		if s != uint64(i+1) {
			t.Fatalf("record %d arrived as seq %d; the link reordered or lost frames", i+1, s)
		}
	}
	if fmt.Sprint(p.atBarrier) != fmt.Sprint(wantAtBarrier) {
		t.Fatalf("barriers arrived after %v records, want %v", p.atBarrier, wantAtBarrier)
	}
}

// TestPendingBufferKeepsSendOrder interleaves Send, Barrier and FlushHeld
// on a live loopback link. Barrier markers and flush markers share the
// pending buffer with the frames, so the follower must see every record in
// send order and each barrier after exactly the records sent before it.
func TestPendingBufferKeepsSendOrder(t *testing.T) {
	tr := New(Config{Seed: 3, HeartbeatEvery: time.Hour})
	defer tr.Close()
	tr.Register("a", 64)
	p := startPump(tr.Register("b", 1<<14))

	const n = 3000
	var want []int
	var dones []chan struct{}
	for i := 1; i <= n; i++ {
		if err := tr.Send("b", rec(uint64(i))); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if i%7 == 0 {
			done, err := tr.Barrier("b")
			if err != nil {
				t.Fatalf("Barrier: %v", err)
			}
			want = append(want, i)
			dones = append(dones, done)
		}
		if i%50 == 0 {
			tr.FlushHeld("b")
		}
	}
	for k, done := range dones {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("barrier %d never completed", k)
		}
	}
	tr.FlushHeld("b")
	waitFor(t, "every record to arrive", 10*time.Second, func() bool { return p.records() == n })
	if st := tr.Stats(); st.Overflowed != 0 || st.Dropped != 0 {
		t.Fatalf("live link lost frames: %+v", st)
	}
	p.check(t, n, want)
}

// TestFlushHeldReturnsAfterTheSocketWrite points a link at a peer that
// reads slowly, so the writer spends most of the burst blocked in socket
// writes, and severs the connection the moment FlushHeld returns. A flush
// marker is released only once the bytes ahead of it are written, and the
// kernel delivers written bytes before the close, so the peer must still
// read every record sent before FlushHeld, none torn; had FlushHeld
// returned while a write was still blocked, the close would cut it short.
func TestFlushHeldReturnsAfterTheSocketWrite(t *testing.T) {
	tr := New(Config{Seed: 4, HeartbeatEvery: time.Hour, BarrierTimeout: time.Minute})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	slow, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	got := make(chan int, 1)
	go func() {
		c, err := slow.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer c.Close()
		r := bufio.NewReaderSize(slowReader{r: c}, 64<<10)
		if _, err := readPreamble(r); err != nil {
			got <- -1
			return
		}
		fr := wireReader(r)
		n := 0
		for {
			p, err := fr.Next()
			if err != nil {
				got <- n
				return
			}
			if p[0] == fmMsg {
				n++
			}
		}
	}()
	tr.mu.Lock()
	ep := tr.eps["b"]
	tr.mu.Unlock()
	ep.mu.Lock()
	ep.addr = slow.Addr().String()
	ep.mu.Unlock()

	// 4096 records of ~2 KiB: ~8 MiB, past what the socket buffers hold.
	const n = 4096
	m := rec(1)
	m.Rec.Point = make([]float64, 250)
	for i := 0; i < n; i++ {
		if err := tr.Send("b", m); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	tr.FlushHeld("b")
	tr.Partition("b")
	select {
	case k := <-got:
		if k != n {
			t.Fatalf("the peer read %d of the %d records sent before FlushHeld", k, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the peer never saw the connection close")
	}
	if st := tr.Stats(); st.Overflowed != 0 {
		t.Fatalf("%d records overflowed; the test needs all of them queued", st.Overflowed)
	}
}

// slowReader sleeps a millisecond before each read.
type slowReader struct{ r io.Reader }

func (s slowReader) Read(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.r.Read(p)
}

// TestOverflowIsCountedWhileTheWriterIsHeldOff holds the writer off with a
// dead destination, so nothing leaves the pending buffer: exactly the
// frames past QueueCapacity count as overflowed, a barrier on the full
// buffer still completes, and FlushHeld turns the pending frames into
// counted drops, so no frame is lost silently.
func TestOverflowIsCountedWhileTheWriterIsHeldOff(t *testing.T) {
	const capacity, n = 32, 100
	tr := New(Config{Seed: 7, QueueCapacity: capacity, DialTimeout: 50 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	inbox := tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if st := tr.Stats(); st.Overflowed != n-capacity {
		t.Fatalf("overflowed %d frames, want the %d past QueueCapacity", st.Overflowed, n-capacity)
	}
	done, err := tr.Barrier("b")
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	m := recv(t, inbox, 5*time.Second)
	ch, ok := m.BarrierChan()
	if !ok {
		t.Fatalf("inbox got %+v, want the locally delivered barrier", m)
	}
	close(ch)
	<-done

	waitFor(t, "liveness evidence to surface via Cut", 5*time.Second, func() bool { return tr.Cut("b") })
	tr.FlushHeld("b")
	st := tr.Stats()
	if st.Sent != n || st.Dropped != capacity || st.Overflowed != n-capacity {
		t.Fatalf("after FlushHeld: sent %d, dropped %d, overflowed %d; want %d, %d, %d",
			st.Sent, st.Dropped, st.Overflowed, n, capacity, n-capacity)
	}
}

// rawStream dials an endpoint as a hand-driven stream peer.
func rawStream(t *testing.T, tr *NetTransport, id string) net.Conn {
	t.Helper()
	addr, err := tr.addrOf(id)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := writePreamble(conn, purposeStream); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestBusyLinkOutlivesReadIdleTimeout writes a record stream by hand with
// one frame always half-written: each write finishes one frame and starts
// the next, so the endpoint's buffer never holds a whole frame when it
// must read again. The writes keep coming for more than three idle
// timeouts; the link must stay up, because the idle deadline is armed
// before every read that can block, not once per buffered run.
func TestBusyLinkOutlivesReadIdleTimeout(t *testing.T) {
	const idle = 250 * time.Millisecond
	tr := New(Config{Seed: 5, ReadIdleTimeout: idle, HeartbeatEvery: time.Hour})
	defer tr.Close()
	p := startPump(tr.Register("b", 1024))
	conn := rawStream(t, tr, "b")

	const n = 100 // one write per 10ms: 1s, four idle timeouts
	var stream []byte
	for i := uint64(1); i <= n; i++ {
		stream = appendMsgFrame(stream, rec(i))
	}
	frame := len(stream) / n
	cuts := []int{0}
	for off := frame / 2; off < len(stream); off += frame {
		cuts = append(cuts, off)
	}
	cuts = append(cuts, len(stream))
	for k := 1; k < len(cuts); k++ {
		if _, err := conn.Write(stream[cuts[k-1]:cuts[k]]); err != nil {
			t.Fatalf("write %d: %v; the endpoint dropped a busy link", k, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, "every record to arrive", 10*time.Second, func() bool { return p.records() == n })
	p.check(t, n, nil)

	// The link is still up: a heartbeat is answered.
	if _, err := conn.Write(appendU64Frame(nil, fmHeartbeat, 1)); err != nil {
		t.Fatalf("heartbeat write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := wireReader(conn).Next()
	if err != nil || ack[0] != fmHeartbeatAck {
		t.Fatalf("heartbeat on the busy link: %v (frame %v); the endpoint tore it down", err, ack)
	}
	if ns := tr.NetStats(); ns.FramesDamaged != 0 || ns.Reconnects != 0 {
		t.Fatalf("busy link: %+v", ns)
	}
}

// TestSilentLinkIsTornDown checks the other half of the idle deadline. A
// stream peer first stays busy for twice ReadIdleTimeout, so the deadline
// armed before the preamble has long expired, then goes quiet — after a
// whole frame, or in the middle of one — and must be disconnected after
// about ReadIdleTimeout of silence.
func TestSilentLinkIsTornDown(t *testing.T) {
	const idle = 100 * time.Millisecond
	tr := New(Config{Seed: 6, ReadIdleTimeout: idle, HeartbeatEvery: time.Hour})
	defer tr.Close()
	tr.Register("b", 64)
	whole := appendMsgFrame(nil, rec(1))
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"after a whole frame", whole},
		{"mid-frame", whole[:len(whole)/2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := rawStream(t, tr, "b")
			fr := wireReader(conn)
			for i := uint64(1); i <= 10; i++ {
				time.Sleep(idle / 5)
				if _, err := conn.Write(appendU64Frame(nil, fmHeartbeat, i)); err != nil {
					t.Fatalf("heartbeat %d: %v", i, err)
				}
				_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if ack, err := fr.Next(); err != nil || ack[0] != fmHeartbeatAck {
					t.Fatalf("heartbeat %d on a busy link: %v; the endpoint tore it down", i, err)
				}
			}
			if _, err := conn.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_ = conn.SetReadDeadline(start.Add(50 * idle))
			_, err := io.ReadAll(conn)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("silent link still open after %v; ReadIdleTimeout is %v", time.Since(start), idle)
			}
			if waited := time.Since(start); waited < idle/2 {
				t.Fatalf("silent link closed after %v, well before ReadIdleTimeout %v", waited, idle)
			}
		})
	}
}

// TestSendAllocs pins the record path: on a live link, Send encodes the
// frame straight into the pending buffer, and the writer swaps and writes
// buffers it reuses, so in steady state a Send allocates nothing. The
// endpoint decodes each record into a fresh Msg, so the link is pointed at
// a sink that discards the bytes and keeps the receiver out of the count.
func TestSendAllocs(t *testing.T) {
	tr := New(Config{Seed: 8, HeartbeatEvery: time.Hour})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()
	tr.mu.Lock()
	ep := tr.eps["b"]
	tr.mu.Unlock()
	ep.mu.Lock()
	ep.addr = sink.Addr().String()
	ep.mu.Unlock()

	m := rec(1)
	for i := 0; i < 8192; i++ {
		_ = tr.Send("b", m)
		if i%1024 == 0 {
			tr.FlushHeld("b")
		}
	}
	tr.FlushHeld("b")
	before := tr.Stats().Overflowed
	allocs := testing.AllocsPerRun(2000, func() {
		if err := tr.Send("b", m); err != nil {
			t.Fatal(err)
		}
	})
	if got := tr.Stats().Overflowed; got != before {
		t.Fatalf("%d Sends overflowed during the measurement; it must time the enqueue path", got-before)
	}
	if !tr.LinkUp("b") {
		t.Fatal("the link is not up")
	}
	if allocs != 0 {
		t.Fatalf("Send allocates %v times per call on a live link, want 0", allocs)
	}
}
