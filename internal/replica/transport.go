package replica

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mlq/internal/faults"
)

// MsgKind discriminates the replication stream's message types.
type MsgKind uint8

const (
	// KindRecord carries one accepted observation.
	KindRecord MsgKind = iota
	// KindTerm announces a new term after a failover: followers adopt it
	// and purge buffered records fenced by it.
	KindTerm
	// kindBarrier is an internal drain marker: the pump closes the attached
	// channel once everything enqueued before it has been processed.
	kindBarrier
)

// Msg is one replication stream message.
type Msg struct {
	Kind MsgKind
	Rec  Record // KindRecord
	Term uint64 // KindTerm: the new lineage's term
	Seq  uint64 // KindTerm: promotion seq

	barrier chan struct{} // kindBarrier only
}

// ErrPartitioned reports a send (or a catch-up fetch) refused because the
// destination is on the wrong side of an injected network partition.
var ErrPartitioned = fmt.Errorf("replica: destination is partitioned away")

// Transport carries the replication stream from the primary to followers.
// MemTransport is the canonical in-process implementation and the chaos
// fault plane; nettransport.NetTransport carries the same contract over
// real sockets (Partition and Heal become administrative link cuts).
//
// FlushHeld is a contract point, not a hint: after FlushHeld(to) returns,
// nothing the transport was voluntarily holding back for that destination —
// a reorder hold-back slot, a buffered-but-unwritten outbound frame — may
// still be parked inside the transport. Everything must be either delivered,
// on the wire, or counted as a loss (Dropped/Overflowed). The group's
// flush-then-barrier-then-assert drain pattern (Failover, Converge) relies
// on it on every implementation; transporttest.Run enforces it.
type Transport interface {
	// Register creates (or replaces) the destination's inbox and returns
	// its receive side. The replica group owns the receive loop.
	Register(id string, capacity int) <-chan Msg
	// Send delivers m to the destination. A nil error is not a delivery
	// guarantee — lossy links may lie; journal catch-up repairs whatever
	// the stream loses.
	Send(to string, m Msg) error
	// Barrier enqueues a drain marker behind everything already sent to
	// the destination and returns a channel the receiver closes once it
	// has processed past the marker. Barriers must never be lost; use
	// NewBarrierMsg to frame one.
	Barrier(to string) (chan struct{}, error)
	// FlushHeld releases any fault-held traffic for the destination.
	FlushHeld(to string)
	// Cut reports whether the destination is currently unreachable.
	Cut(to string) bool
	// Partition severs the destination until Heal restores it.
	Partition(id string)
	Heal(id string)
	// Stats returns cumulative delivery accounting.
	Stats() TransportStats
	// Close shuts every inbox so receive loops exit. Idempotent.
	Close()
}

var _ Transport = (*MemTransport)(nil)

// NewBarrierMsg frames a drain-barrier message plus the channel the
// receiving pump closes once it processes the marker. Transport
// implementations outside this package need it because the barrier
// framing is deliberately not part of the wire-visible Msg surface.
func NewBarrierMsg() (Msg, chan struct{}) {
	done := make(chan struct{})
	return Msg{Kind: kindBarrier, barrier: done}, done
}

// BarrierChan returns the drain channel of a barrier message (ok false for
// data-plane messages). Receive loops outside this package — the transport
// conformance suite, custom pumps over an external transport — need it to
// honor the barrier contract: close the channel once everything enqueued
// before the marker has been processed.
func (m Msg) BarrierChan() (chan struct{}, bool) {
	if m.Kind != kindBarrier || m.barrier == nil {
		return nil, false
	}
	return m.barrier, true
}

// TransportStats is the transport's cumulative delivery accounting.
type TransportStats struct {
	Sent        int64 // messages handed to Send
	Delivered   int64 // messages enqueued on a follower inbox
	Dropped     int64 // silently lost by the drop fault
	Duplicated  int64 // delivered twice by the duplicate fault
	Reordered   int64 // held back and delivered after a successor
	Partitioned int64 // refused because the link was partitioned
	Overflowed  int64 // lost because the destination inbox was full
}

// MemTransport is the in-process replication fabric: per-destination bounded
// inboxes with a fault-injection plane wired into internal/faults. Drop,
// duplicate and reorder fire per data message from the injector's seeded
// stream (sites replica.drop / replica.dup / replica.reorder); partitions
// are topology state flipped explicitly by the chaos harness. Control
// messages (term announcements, drain barriers) are exempt from the
// probabilistic faults — they model in-process group bookkeeping, not the
// replicated data plane — but a partition blocks them like everything else.
//
// Delivery into a full inbox is counted and dropped, never blocked: the
// transport never waits on a receiver, and the gap a loss leaves is what
// journal catch-up repairs. The replica group waits for a free slot itself
// before it streams a record (node.awaitRoom), so its own stream reaches a
// full inbox only through the fault plane's duplicates and reorders.
type MemTransport struct {
	mu      sync.Mutex
	inj     *faults.Injector
	closed  bool
	inboxes map[string]chan Msg
	cut     map[string]bool
	held    map[string]*Msg // one-slot reorder hold-back per destination

	sent, delivered, dropped, duplicated, reordered, partitioned, overflowed atomic.Int64
}

// NewMemTransport returns an empty transport. inj may be nil (no faults).
func NewMemTransport(inj *faults.Injector) *MemTransport {
	return &MemTransport{
		inj:     inj,
		inboxes: make(map[string]chan Msg),
		cut:     make(map[string]bool),
		held:    make(map[string]*Msg),
	}
}

// Register creates the inbox for a destination and returns its receive side.
// Re-registering an id replaces the inbox (a rejoining replica starts with
// an empty queue).
func (t *MemTransport) Register(id string, capacity int) <-chan Msg {
	if capacity <= 0 {
		capacity = 4096
	}
	ch := make(chan Msg, capacity)
	t.mu.Lock()
	t.inboxes[id] = ch
	delete(t.held, id)
	t.mu.Unlock()
	return ch
}

// Partition cuts a replica off: sends to it (and fetches by it) fail with
// ErrPartitioned until Heal.
func (t *MemTransport) Partition(id string) {
	t.mu.Lock()
	t.cut[id] = true
	t.mu.Unlock()
}

// Heal reconnects a partitioned replica.
func (t *MemTransport) Heal(id string) {
	t.mu.Lock()
	delete(t.cut, id)
	t.mu.Unlock()
}

// Cut reports whether a replica is currently partitioned away.
func (t *MemTransport) Cut(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cut[id]
}

// Send delivers m to the destination's inbox, subject to the fault plane.
// A nil error means the sender may believe it was delivered — the drop
// fault and inbox overflow intentionally lie, because that is what a lossy
// network looks like to a fire-and-forget streamer.
func (t *MemTransport) Send(to string, m Msg) error {
	t.sent.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("replica: transport is closed")
	}
	ch, ok := t.inboxes[to]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("replica: unknown destination %q", to)
	}
	if t.cut[to] {
		t.partitioned.Add(1)
		t.mu.Unlock()
		return ErrPartitioned
	}
	if m.Kind == KindRecord {
		if t.inj.Fire(faults.ReplicaDrop) {
			t.dropped.Add(1)
			t.mu.Unlock()
			return nil
		}
		if held := t.held[to]; held == nil && t.inj.Fire(faults.ReplicaReorder) {
			// Hold this message back; it rides behind the next one.
			hm := m
			t.held[to] = &hm
			t.reordered.Add(1)
			t.mu.Unlock()
			return nil
		}
	}
	t.deliverLocked(to, ch, m)
	if m.Kind == KindRecord && t.inj.Fire(faults.ReplicaDup) {
		t.duplicated.Add(1)
		t.deliverLocked(to, ch, m)
	}
	if held := t.held[to]; held != nil {
		delete(t.held, to)
		t.deliverLocked(to, ch, *held)
	}
	t.mu.Unlock()
	return nil
}

// FlushHeld releases a destination's reorder hold-back slot, if occupied.
// Barriers and drains call it so a held record cannot outlive the stream
// that reordered around it.
func (t *MemTransport) FlushHeld(to string) {
	t.mu.Lock()
	if held := t.held[to]; held != nil {
		delete(t.held, to)
		if ch, ok := t.inboxes[to]; ok && !t.cut[to] {
			t.deliverLocked(to, ch, *held)
		}
	}
	t.mu.Unlock()
}

func (t *MemTransport) deliverLocked(to string, ch chan Msg, m Msg) {
	select {
	case ch <- m:
		t.delivered.Add(1)
	default:
		t.overflowed.Add(1)
	}
}

// Barrier enqueues a drain barrier, blocking until there is room: a
// barrier must never be lost, it is the group's synchronization primitive,
// not data-plane traffic.
func (t *MemTransport) Barrier(to string) (chan struct{}, error) {
	t.mu.Lock()
	ch, ok := t.inboxes[to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("replica: transport is closed")
	}
	if !ok {
		return nil, fmt.Errorf("replica: unknown destination %q", to)
	}
	m, done := NewBarrierMsg()
	//lint:ignore chanowner barriers must never be lost: blocking until the bounded inbox has room is the synchronization contract, and the receiver's pump is always draining
	ch <- m
	return done, nil
}

// Close shuts every inbox: receivers' pumps drain what is queued and exit;
// subsequent sends fail. Idempotent.
func (t *MemTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, ch := range t.inboxes {
		close(ch)
	}
}

// Stats returns the transport's cumulative counters.
func (t *MemTransport) Stats() TransportStats {
	return TransportStats{
		Sent:        t.sent.Load(),
		Delivered:   t.delivered.Load(),
		Dropped:     t.dropped.Load(),
		Duplicated:  t.duplicated.Load(),
		Reordered:   t.reordered.Load(),
		Partitioned: t.partitioned.Load(),
		Overflowed:  t.overflowed.Load(),
	}
}
