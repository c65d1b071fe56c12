package replica

import (
	"bytes"
	"sync"
	"testing"

	"mlq/internal/events"
)

// TestFollowerGroupApply holds follower r1 busy while bursts many times
// larger than MaxBatch queue in its inbox, so the pump meets each burst as
// one backlog. Group-apply must fold the backlog in runs of at most
// MaxBatch records per published view, publish before every barrier
// closes, and never move a reader's view backwards.
func TestFollowerGroupApply(t *testing.T) {
	const maxBatch, burst, bursts = 8, 203, 4
	ev := events.New(events.Config{RingSize: 1 << 14})
	g := newTestGroup(t, Config{Replicas: 2, MaxBatch: maxBatch, Events: ev})
	h := g.Handle()
	r1 := g.nodes["r1"]

	// A concurrent reader: r1's published sequence never decreases.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := g.View("r1"); v != nil {
				if v.Seq < last {
					t.Errorf("r1 view seq went back from %d to %d", last, v.Seq)
					return
				}
				last = v.Seq
			}
		}
	}()

	for b := 0; b < bursts; b++ {
		// While the test holds r1's lock the pump stalls on the burst's
		// first record, and the rest of the burst and the barrier queue
		// behind it: the barrier closes in the same run as the burst's
		// tail, which is not a multiple of MaxBatch.
		r1.mu.Lock()
		writeN(t, h, b*burst, (b+1)*burst)
		done, err := g.Transport().Barrier("r1")
		r1.mu.Unlock()
		if err != nil {
			t.Fatalf("barrier: %v", err)
		}
		<-done
		acked := g.Stats().Acked
		if v := g.View("r1"); v == nil || v.Seq != acked {
			t.Fatalf("burst %d: r1 view after the barrier covers seq %v, acknowledged %d", b, v, acked)
		}
		got, err := g.ModelBytes("r1")
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.ModelBytes("r0")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("burst %d: r1 model differs from the primary's", b)
		}
	}
	close(stop)
	wg.Wait()

	var rs ReplicaStats
	for _, s := range g.Stats().Replicas {
		if s.ID == "r1" {
			rs = s
		}
	}
	if rs.Streamed != burst*bursts {
		t.Fatalf("r1 applied %d records, want %d", rs.Streamed, burst*bursts)
	}
	if rs.Epoch >= uint64(rs.Streamed) {
		t.Fatalf("r1 published %d views for %d records; group-apply should publish fewer", rs.Epoch, rs.Streamed)
	}
	// Each of r1's epoch-publish events carries the applied sequence it
	// covers: consecutive publishes are at most MaxBatch records apart.
	var prev uint64
	publishes := 0
	for _, e := range ev.Snapshot() {
		if e.Sub != events.SubReplica || e.Kind != events.KindEpochPublish || int(e.Actor) != r1.idx+1 {
			continue
		}
		publishes++
		if e.B-prev > maxBatch {
			t.Fatalf("publish of epoch %d covers seqs %d..%d: %d records, bound is MaxBatch %d", e.A, prev+1, e.B, e.B-prev, maxBatch)
		}
		prev = e.B
	}
	if uint64(publishes) != rs.Epoch || prev != uint64(rs.Streamed) {
		t.Fatalf("saw %d publish events up to seq %d, want %d up to %d", publishes, prev, rs.Epoch, rs.Streamed)
	}
}
