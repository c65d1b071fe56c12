package nettransport

import (
	"bytes"
	"testing"
	"time"

	"mlq/internal/core"
	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
	"mlq/internal/quadtree"
	"mlq/internal/replica"
)

func rec(seq uint64) replica.Msg {
	return replica.Msg{Kind: replica.KindRecord, Rec: replica.Record{
		Seq: seq, Term: 1, Point: geom.Point{float64(seq), 2}, Value: float64(seq), Cause: seq,
	}}
}

func waitFor(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func recv(t *testing.T, inbox <-chan replica.Msg, within time.Duration) replica.Msg {
	t.Helper()
	select {
	case m := <-inbox:
		return m
	case <-time.After(within):
		t.Fatal("timed out waiting for a delivery")
		return replica.Msg{}
	}
}

// TestHeartbeatLivenessTearsDownDeafLink mutes an endpoint's heartbeat acks
// — the TCP connection stays open but goes silently deaf, the exact failure
// heartbeats exist to detect — and expects the ack reader to declare the
// link dead and the dialer to re-establish it once the peer recovers.
func TestHeartbeatLivenessTearsDownDeafLink(t *testing.T) {
	tr := New(Config{
		Seed:           7,
		HeartbeatEvery: 10 * time.Millisecond,
		HeartbeatMiss:  2,
	})
	defer tr.Close()
	tr.Register("a", 64)
	inbox := tr.Register("b", 64)

	if err := tr.Send("b", rec(1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m := recv(t, inbox, 5*time.Second); m.Rec.Seq != 1 {
		t.Fatalf("first delivery seq %d, want 1", m.Rec.Seq)
	}

	tr.MuteEndpoint("b", true)
	waitFor(t, "missed heartbeats to kill and redial the link", 10*time.Second, func() bool {
		ns := tr.NetStats()
		return ns.HeartbeatsMissed >= 2 && ns.Reconnects >= 1
	})
	tr.MuteEndpoint("b", false)

	if err := tr.Send("b", rec(2)); err != nil {
		t.Fatalf("Send after recovery: %v", err)
	}
	waitFor(t, "post-recovery delivery", 10*time.Second, func() bool {
		select {
		case m := <-inbox:
			return m.Rec.Seq == 2
		default:
			return false
		}
	})
}

// TestDeadDestinationOverflowsAndCuts kills a destination's listener: sends
// must keep returning instantly (queued up to capacity, then counted as
// overflow), and the dialer's consecutive failures must surface through
// Cut so a failover skips the unreachable peer.
func TestDeadDestinationOverflowsAndCuts(t *testing.T) {
	tr := New(Config{Seed: 7, QueueCapacity: 8, DialTimeout: 50 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	start := time.Now()
	const n = 64
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("sends to a dead destination took %v; they must never block", elapsed)
	}
	waitFor(t, "overflow accounting", 5*time.Second, func() bool {
		return tr.Stats().Overflowed >= n-8
	})
	waitFor(t, "liveness evidence to surface via Cut", 5*time.Second, func() bool {
		return tr.Cut("b")
	})
}

// TestFlushHeldDrainsDeadLinkAsCountedLosses parks frames on a dead link's
// queue and expects FlushHeld to return promptly with everything accounted:
// after it, nothing may still be parked inside the transport.
func TestFlushHeldDrainsDeadLinkAsCountedLosses(t *testing.T) {
	tr := New(Config{Seed: 7, QueueCapacity: 64, DialTimeout: 50 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	const n = 16
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, "dialer to notice the dead link", 5*time.Second, func() bool { return tr.Cut("b") })
	tr.FlushHeld("b")
	st := tr.Stats()
	if st.Dropped+st.Overflowed < n {
		t.Fatalf("after FlushHeld on a dead link: dropped %d + overflowed %d < %d sent; frames still parked",
			st.Dropped, st.Overflowed, n)
	}
}

// TestBackoffCappedExponentialSeeded pins the reconnect backoff shape:
// reproducible for one seed, divergent across seeds, never above the cap,
// and growing toward it.
func TestBackoffCappedExponentialSeeded(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		tr := New(Config{Seed: seed, BackoffBase: 5 * time.Millisecond, BackoffCap: 500 * time.Millisecond})
		defer tr.Close()
		out := make([]time.Duration, 12)
		for i := range out {
			out[i] = tr.backoff(i)
		}
		return out
	}
	a, b, c := mk(1), mk(1), mk(2)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed gave %v then %v; backoff must be reproducible", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
		if a[i] > 500*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v exceeds the cap", i, a[i])
		}
		if a[i] < 5*time.Millisecond/2 {
			t.Fatalf("attempt %d: backoff %v below base/2", i, a[i])
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter streams")
	}
	if a[11] < 250*time.Millisecond {
		t.Fatalf("late attempt backoff %v; expected the capped region (>= cap/2)", a[11])
	}
}

// TestFakeClockDrivesReconnectMachinery runs the dial/backoff loop entirely
// on a FakeClock: with the destination's listener dead, the writer parks on
// fake timers and only advances when the test advances time.
func TestFakeClockDrivesReconnectMachinery(t *testing.T) {
	clk := NewFakeClock()
	tr := New(Config{Seed: 7, Clock: clk, DialTimeout: 20 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 100 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	if err := tr.Send("b", rec(1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "writer to park on a fake backoff timer", 5*time.Second, func() bool {
		return clk.Pending() > 0
	})
	deadline := time.Now().Add(10 * time.Second)
	for !tr.Cut("b") {
		if time.Now().After(deadline) {
			t.Fatal("advancing the fake clock never produced liveness evidence")
		}
		clk.Advance(200 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// TestChaosTruncDamagesFramesWithoutDesync drives the stream through the
// chaos plane with byte-flip/torn-write truncation enabled: damaged frames
// must be counted and skipped (or the connection torn down and redialed),
// never decoded into a message, and the stream must keep delivering.
func TestChaosTruncDamagesFramesWithoutDesync(t *testing.T) {
	inj := faults.New(11)
	inj.Enable(faults.NetTrunc, faults.SiteConfig{Probability: 0.05})
	tr := New(Config{Seed: 11, Injector: inj, HeartbeatEvery: 20 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffCap: 10 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	inbox := tr.Register("b", 4096)

	var delivered int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range inbox {
			if m.Kind == replica.KindRecord {
				delivered++
			}
		}
	}()

	const n = 400
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if i%50 == 0 {
			time.Sleep(5 * time.Millisecond) // let the wire catch chaos mid-stream
		}
	}
	waitFor(t, "chaos to damage at least one frame", 10*time.Second, func() bool {
		ns := tr.NetStats()
		return ns.FramesDamaged >= 1 || ns.Reconnects >= 1
	})
	waitFor(t, "stream to keep delivering through damage", 10*time.Second, func() bool {
		return tr.Stats().Delivered >= 1
	})
	tr.Close()
	<-done
	if delivered < 1 {
		t.Fatal("no records survived the chaos stream")
	}
}

// TestBarrierTimersReleasedOnCompletion runs barriers and flushes over a
// live link on a FakeClock. Each one arms a BarrierTimeout timer (the
// watchdog's, FlushHeld's) that it no longer needs once it completes:
// afterwards only the writer's heartbeat timer may still be pending.
func TestBarrierTimersReleasedOnCompletion(t *testing.T) {
	clk := NewFakeClock()
	// A heartbeat period of an hour keeps the ack reader's real-time read
	// deadline from tearing the link down while fake time stands still.
	tr := New(Config{Seed: 7, Clock: clk, HeartbeatEvery: time.Hour})
	defer tr.Close()
	tr.Register("a", 64)
	inbox := tr.Register("b", 64)
	go func() {
		for m := range inbox {
			if ch, ok := m.BarrierChan(); ok {
				close(ch)
			}
		}
	}()
	const n = 50
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		tr.FlushHeld("b")
		done, err := tr.Barrier("b")
		if err != nil {
			t.Fatalf("Barrier: %v", err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("barrier %d never completed", i)
		}
	}
	if !tr.LinkUp("b") {
		t.Fatal("the barriers did not ride a live link")
	}
	waitFor(t, "completed barriers to release their timers", 5*time.Second, func() bool {
		return clk.Pending() == 1
	})
}

// TestTornCoalescedChunkConvergesThroughCatchUp damages one socket read of
// a replicated burst. The writer coalesces queued frames and the reader
// reads through a buffer, so the read is a multi-frame chunk, and the
// flipped byte costs the follower the frame it lands in — or, when it hits
// a length prefix, the rest of the connection's stream. The follower must
// still converge, byte for byte, with the journal catch-up restoring what
// the chunk lost. Every frame of the burst is a record, so catch-up always
// has something to restore.
func TestTornCoalescedChunkConvergesThroughCatchUp(t *testing.T) {
	inj := faults.New(5)
	// Only the follower's stream connection reads through the chaos
	// plane, and heartbeats are off, so hit 20 is a read inside the burst:
	// ~200 KiB of frames take more than 50 reads of 4 KiB.
	inj.Enable(faults.NetTrunc, faults.SiteConfig{Schedule: []int64{20}})
	tr := New(Config{Seed: 5, Injector: inj, HeartbeatEvery: time.Hour,
		BackoffBase: time.Millisecond, BackoffCap: 10 * time.Millisecond})
	newModel := func() (*core.MLQ, error) {
		return core.NewMLQ(quadtree.Config{
			Region:      geomtest.MustRect(geom.Point{0, 0}, geom.Point{1, 1}),
			MemoryLimit: 64 * quadtree.DefaultNodeBytes,
		})
	}
	g, err := replica.New(replica.Config{Replicas: 2, Dir: t.TempDir(), NewModel: newModel, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	h := g.Handle()
	const n = 3000
	for i := 0; i < n; i++ {
		p := geom.Point{float64(i%17) / 17, float64(i%23) / 23}
		if err := h.Observe(p, float64(i%31)+0.5); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if err := g.Converge(); err != nil {
		t.Fatalf("converge: %v", err)
	}
	if fired := inj.Stats(faults.NetTrunc).Fired; fired != 1 {
		t.Fatalf("truncation fired %d times, want exactly 1", fired)
	}
	r0, err := g.ModelBytes("r0")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := g.ModelBytes("r1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r0, r1) {
		t.Fatal("follower diverged from the primary after the damaged chunk")
	}
	for _, rs := range g.Stats().Replicas {
		if rs.ID != "r1" {
			continue
		}
		if rs.Applied != n {
			t.Fatalf("r1 applied %d of %d records", rs.Applied, n)
		}
		if rs.Catchup == 0 {
			t.Fatal("r1 restored no records through catch-up after a damaged chunk")
		}
	}
}
