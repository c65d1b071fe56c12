// Package transporttest is the executable contract of replica.Transport: a
// conformance suite every implementation must pass, run against both the
// in-process MemTransport and the socket-backed nettransport. The subtests
// pin exactly the semantics the Group's drain patterns (Failover, Converge,
// Rejoin) lean on — in-order delivery on a healthy link, barriers that are
// never lost (partitions and dead links included), FlushHeld leaving
// nothing parked, sends that never block, and honest loss accounting.
package transporttest

import (
	"testing"
	"time"

	"mlq/internal/geom"
	"mlq/internal/replica"
)

// Factory builds a fresh transport per subtest. The suite closes it.
type Factory func(t *testing.T) replica.Transport

// rec builds a data-plane record message with a recognizable sequence.
func rec(seq uint64) replica.Msg {
	return replica.Msg{Kind: replica.KindRecord, Rec: replica.Record{
		Seq:   seq,
		Term:  1,
		Point: geom.Point{float64(seq), float64(seq) / 2},
		Value: float64(seq) * 1.5,
		Cause: seq,
	}}
}

// pump drains an inbox, recording record sequences in arrival order and
// closing barrier markers like a real replica's pump does.
type pump struct {
	seqs chan uint64
}

func startPump(inbox <-chan replica.Msg) *pump {
	p := &pump{seqs: make(chan uint64, 4096)}
	go func() {
		defer close(p.seqs)
		for m := range inbox {
			if ch, ok := m.BarrierChan(); ok {
				close(ch)
				continue
			}
			if m.Kind == replica.KindRecord {
				//lint:ignore chanowner test pump: the collector always drains and the buffer outsizes every workload in the suite
				p.seqs <- m.Rec.Seq
			}
		}
	}()
	return p
}

// collect receives up to n sequences, bounded by a deadline.
func (p *pump) collect(n int, within time.Duration) []uint64 {
	var got []uint64
	deadline := time.After(within)
	for len(got) < n {
		select {
		case s, ok := <-p.seqs:
			if !ok {
				return got
			}
			got = append(got, s)
		case <-deadline:
			return got
		}
	}
	return got
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

// Run executes the conformance suite against a transport implementation.
func Run(t *testing.T, factory Factory) {
	t.Run("InOrderDelivery", func(t *testing.T) {
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		inbox := tr.Register("dst", 1024)
		p := startPump(inbox)
		const n = 300
		for i := uint64(1); i <= n; i++ {
			if err := tr.Send("dst", rec(i)); err != nil {
				t.Fatalf("Send(%d): %v", i, err)
			}
		}
		got := p.collect(n, 5*time.Second)
		if len(got) != n {
			t.Fatalf("delivered %d of %d records on a healthy link", len(got), n)
		}
		for i, s := range got {
			if s != uint64(i+1) {
				t.Fatalf("out-of-order delivery: position %d holds seq %d", i, s)
			}
		}
	})

	t.Run("BarrierDrainsEverythingAhead", func(t *testing.T) {
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		inbox := tr.Register("dst", 1024)
		var ahead int
		drained := make(chan int, 1)
		go func() {
			n := 0
			for m := range inbox {
				if ch, ok := m.BarrierChan(); ok {
					//lint:ignore chanowner capacity-1 channel written once per subtest; the test body always receives it
					drained <- n
					close(ch)
					continue
				}
				n++
			}
		}()
		const n = 100
		for i := uint64(1); i <= n; i++ {
			if err := tr.Send("dst", rec(i)); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		tr.FlushHeld("dst")
		done, err := tr.Barrier("dst")
		if err != nil {
			t.Fatalf("Barrier: %v", err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("barrier never drained")
		}
		ahead = <-drained
		if ahead != n {
			t.Fatalf("barrier overtook the stream: %d of %d records ahead of it", ahead, n)
		}
	})

	t.Run("BackToBackBurstArrivesInOrderBeforeBarrier", func(t *testing.T) {
		// Records sent back to back queue faster than the link drains
		// them, so a socket writer coalesces many into one write; the
		// barrier sent right behind them (no FlushHeld) must still close
		// only after every one arrived, in order.
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		inbox := tr.Register("dst", 1024)
		atBarrier := make(chan []uint64, 1)
		go func() {
			var seqs []uint64
			for m := range inbox {
				if ch, ok := m.BarrierChan(); ok {
					//lint:ignore chanowner capacity-1 channel written once per subtest; the test body always receives it
					atBarrier <- seqs
					close(ch)
					continue
				}
				if m.Kind == replica.KindRecord {
					seqs = append(seqs, m.Rec.Seq)
				}
			}
		}()
		const n = 500
		for i := uint64(1); i <= n; i++ {
			if err := tr.Send("dst", rec(i)); err != nil {
				t.Fatalf("Send(%d): %v", i, err)
			}
		}
		done, err := tr.Barrier("dst")
		if err != nil {
			t.Fatalf("Barrier: %v", err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("barrier never closed")
		}
		got := <-atBarrier
		if len(got) != n {
			t.Fatalf("%d of %d records arrived before the barrier", len(got), n)
		}
		for i, s := range got {
			if s != uint64(i+1) {
				t.Fatalf("out-of-order delivery: position %d holds seq %d", i, s)
			}
		}
	})

	t.Run("PartitionBlocksHealRestores", func(t *testing.T) {
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		inbox := tr.Register("dst", 1024)
		p := startPump(inbox)
		tr.Partition("dst")
		if !tr.Cut("dst") {
			t.Fatal("Cut must report a partitioned destination")
		}
		if err := tr.Send("dst", rec(1)); err != replica.ErrPartitioned {
			t.Fatalf("Send to partitioned destination: got %v, want ErrPartitioned", err)
		}
		if got := tr.Stats().Partitioned; got < 1 {
			t.Fatalf("Partitioned counter = %d, want >= 1", got)
		}
		tr.Heal("dst")
		waitFor(t, "heal to lift Cut", 5*time.Second, func() bool { return !tr.Cut("dst") })
		if err := tr.Send("dst", rec(2)); err != nil {
			t.Fatalf("Send after Heal: %v", err)
		}
		got := p.collect(1, 5*time.Second)
		if len(got) != 1 || got[0] != 2 {
			t.Fatalf("post-heal delivery = %v, want [2]", got)
		}
	})

	t.Run("BarrierSurvivesPartition", func(t *testing.T) {
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		inbox := tr.Register("dst", 1024)
		startPump(inbox)
		tr.Partition("dst")
		tr.FlushHeld("dst")
		done, err := tr.Barrier("dst")
		if err != nil {
			t.Fatalf("Barrier across a partition: %v", err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a barrier must never be lost, partition or not")
		}
	})

	t.Run("FlushHeldParksNothing", func(t *testing.T) {
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		inbox := tr.Register("dst", 1024)
		startPump(inbox)
		const n = 50
		for i := uint64(1); i <= n; i++ {
			if err := tr.Send("dst", rec(i)); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		tr.FlushHeld("dst")
		done, err := tr.Barrier("dst")
		if err != nil {
			t.Fatalf("Barrier: %v", err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("drain barrier never closed")
		}
		// After flush + barrier, every record is out of the transport: either
		// delivered to the pump or honestly counted as a loss.
		waitFor(t, "flush accounting to settle", 5*time.Second, func() bool {
			st := tr.Stats()
			return st.Delivered+st.Dropped+st.Overflowed >= n
		})
	})

	t.Run("SendNeverBlocksOnFullInbox", func(t *testing.T) {
		tr := factory(t)
		defer tr.Close()
		tr.Register("src", 64)
		tr.Register("dst", 4) // tiny inbox, no pump
		const n = 64
		start := time.Now()
		for i := uint64(1); i <= n; i++ {
			if err := tr.Send("dst", rec(i)); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("sends took %v; a full inbox must never block the sender", elapsed)
		}
		waitFor(t, "overflow accounting", 5*time.Second, func() bool {
			st := tr.Stats()
			return st.Delivered == 4 && st.Delivered+st.Overflowed+st.Dropped == n
		})
	})

	t.Run("SendAfterCloseFails", func(t *testing.T) {
		tr := factory(t)
		tr.Register("src", 64)
		inbox := tr.Register("dst", 16)
		tr.Close()
		if err := tr.Send("dst", rec(1)); err == nil {
			t.Fatal("Send after Close must fail")
		}
		if _, err := tr.Barrier("dst"); err == nil {
			t.Fatal("Barrier after Close must fail")
		}
		select {
		case _, ok := <-inbox:
			if ok {
				t.Fatal("closed transport delivered a message")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close must close registered inboxes")
		}
	})
}
