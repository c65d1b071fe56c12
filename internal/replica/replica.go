// Package replica turns the single-process feedback loop into a replicated
// primary/follower fleet. The primary is a core.Publisher with its
// crash-safety journal; every observation it accepts is streamed — in the
// exact order the journal records it — over a pluggable in-process transport
// to N followers, which fold it into their own copy of the model through the
// same Observe path ReplayJournal uses. Followers serve lock-free Predict
// reads from immutable snapshots with observable staleness, counted in
// records (mlq_replica_lag_records).
//
// Failover is deterministic and clock-free: there are no heartbeats or
// election timeouts, only monotonic term numbers acting as fencing tokens.
// A demoted primary's writes are rejected with ErrFencedTerm; promotion
// picks the most-caught-up follower; a rejoining stale replica rebuilds from
// the last durable catalog checkpoint plus the primary's journal suffix
// before it serves again. Because the primary applies observations in accept
// order and followers apply the identical sequence, every replica's model
// converges to byte-identical serialization — the chaos experiment
// (mlqbench -exp chaosrepl) asserts exactly that across kills, partitions,
// drops, duplicates and reorders.
package replica

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mlq/internal/core"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/quadtree"
)

// Record is one replicated observation: the model point and observed cost,
// stamped with the group-wide sequence number and the term of the lineage
// that accepted it. Cause and MintNS carry the observation's identity on
// the causal event spine across the wire, so a follower's recv/apply hops
// land on the same trace the primary started; both are zero when no
// recorder is installed and for records recovered via journal catch-up
// (the journal's on-disk format does not carry them).
type Record struct {
	Seq    uint64
	Term   uint64
	Point  geom.Point
	Value  float64
	Cause  uint64
	MintNS int64
}

// Typed replication errors.
var (
	// ErrFencedTerm reports a write through a handle whose term has been
	// superseded by a failover: the writer is a demoted primary (or a
	// client of one) and must re-acquire a handle from the group.
	ErrFencedTerm = fmt.Errorf("replica: write fenced by a newer term")
	// ErrCompacted reports a catch-up fetch below the primary's journal
	// base: the requested records were absorbed into a durable checkpoint,
	// and the follower must resync from it.
	ErrCompacted = fmt.Errorf("replica: requested records are checkpointed away")
	// ErrNoPrimary reports an operation attempted while a failover is mid
	// flight and no lineage is serving.
	ErrNoPrimary = fmt.Errorf("replica: no primary lineage is serving")
	// ErrLagged reports a follower that could not be caught up to the
	// primary's acknowledged sequence within the configured fetch budget.
	ErrLagged = fmt.Errorf("replica: follower could not catch up")
)

// Role is a replica's position in the group.
type Role int

const (
	// RoleFollower applies the replication stream and serves stale-bounded
	// reads.
	RoleFollower Role = iota
	// RolePrimary owns the Publisher and the journal; all writes land here.
	RolePrimary
	// RoleDown is a killed replica: it discards stream traffic and serves
	// nothing until Rejoin resyncs it.
	RoleDown
)

// String names the role for telemetry and rendering.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RolePrimary:
		return "primary"
	case RoleDown:
		return "down"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// View is a replica's published read state: an immutable snapshot plus the
// watermarks a reader needs to reason about staleness. Reads are one atomic
// pointer load; the View never changes after publication.
type View struct {
	Snap  *quadtree.Snapshot
	Seq   uint64 // highest observation sequence folded into Snap
	Epoch uint64 // this replica's own publish generation
	Term  uint64 // lineage term the replica was on when it published
}

// node is one group member.
type node struct {
	id  string
	g   *Group
	idx int // ordinal within the group; idx+1 is the event-spine actor

	mu      sync.Mutex
	role    Role
	mlq     *core.MLQ       // owned model while follower or down (nil when primary: the Publisher owns it)
	pub     *core.Publisher // non-nil while primary
	term    uint64          // highest term adopted
	applied uint64          // highest contiguous sequence folded into mlq
	epoch   uint64          // this replica's own publish count
	pending map[uint64]Record
	// unpublished counts the records folded into mlq since the current
	// view was published (group-apply, see pump).
	unpublished int

	cur atomic.Pointer[View]

	applRecs  atomic.Int64 // records folded into the model as a follower
	dups      atomic.Int64 // stream records dropped as duplicates
	fenced    atomic.Int64 // stream records dropped by term fencing
	catchup   atomic.Int64 // records recovered via journal catch-up/resync
	fetchFail atomic.Int64 // catch-up rounds abandoned after fetchAttempts

	inbox <-chan Msg
	// room carries one wake-up from the pump, posted on every receive, to
	// a primary fan-out waiting in awaitRoom for a free inbox slot.
	room     chan struct{}
	pumpDone chan struct{}
}

// Predict serves a lock-free read from the replica's current view. ok is
// false while the replica is down (no view) or its model is still empty.
func (n *node) Predict(p geom.Point) (float64, bool) {
	v := n.cur.Load()
	if v == nil || v.Snap == nil {
		return 0, false
	}
	return v.Snap.Predict(p)
}

// view returns the current read state (nil while down).
func (n *node) view() *View { return n.cur.Load() }

// pump is the follower's apply loop: it drains the inbox for the life of
// the group, applying records in sequence order and answering barriers.
// Catch-up fetches run outside n.mu (they do file IO against the primary's
// journal), triggered by the gap evidence ingest leaves behind.
//
// Records are group-applied: after a blocking receive, the pump takes
// whatever else is already queued, without blocking, into the same run and
// publishes one view for the run, rather than a snapshot per record. The
// run's view is published before a barrier closes (so a barrier still
// means "everything ahead of me is visible") and before a catch-up starts,
// and no view covers more than the group's MaxBatch records — the bound
// the primary's writer already puts on its own publishes.
func (n *node) pump() {
	defer close(n.pumpDone)
	for m := range n.inbox {
		n.handle(m)
	run:
		for {
			select {
			case m, ok := <-n.inbox:
				if !ok {
					break run
				}
				n.handle(m)
			default:
				break run
			}
		}
		n.publishPending()
	}
}

// handle processes one inbox message of the pump's current run.
func (n *node) handle(m Msg) {
	// The receive freed an inbox slot: wake a waiting awaitRoom.
	select {
	case n.room <- struct{}{}:
	default:
	}
	if m.Kind == kindBarrier {
		n.publishPending()
		close(m.barrier)
		return
	}
	if target := n.ingest(m); target > 0 {
		n.publishPending()
		// A round that cannot close the gap gives up and is counted in
		// FetchFails; the next gap evidence or a convergence barrier retries.
		_ = n.catchUpTo(target, nil)
	}
}

// awaitRoom is the stream's flow control: the primary's fan-out calls it
// before each record it sends the node, and it blocks while the node's
// inbox is full. So a peer that drains its inbox never loses a streamed
// record to overflow, and a follower's staleness is bounded by its inbox
// capacity plus the record its pump holds. The wait always ends: the pump
// drains the inbox for the life of the group, whatever the node's role,
// and takes neither the group lock nor the publisher's accept lock that
// the waiting fan-out holds. On MemTransport the group's senders, which
// the group lock serializes, are the only writers to the inbox, so a slot
// seen free here is still free at the send. A record the fault plane
// duplicates or releases from reorder hold-back, or that a socket
// transport had in flight, may still overflow; catch-up repairs that like
// any other loss.
func (n *node) awaitRoom() {
	for c := cap(n.inbox); c > 0 && len(n.inbox) >= c; {
		<-n.room
	}
}

// ingest folds one stream message into the node. It returns the sequence a
// journal catch-up must reach to close the gap the message left — the
// highest buffered record the node cannot apply yet — or 0 when nothing is
// buffered.
func (n *node) ingest(m Msg) (target uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch m.Kind {
	case KindTerm:
		n.adoptTermLocked(m.Term)
	case KindRecord:
		if n.role != RoleFollower {
			// A primary or a down replica is not an apply target; records
			// reaching one are stale lineage traffic.
			n.fenced.Add(1)
			return 0
		}
		// The recv hop marks the record leaving the transport, before any
		// dedup/fencing: wire lag, not apply lag.
		n.g.ev.EmitHop(events.SubReplica, events.KindRecv, m.Rec.Cause, m.Rec.MintNS, n.idx+1, m.Rec.Seq)
		n.ingestRecordLocked(m.Rec)
		for seq := range n.pending {
			target = max(target, seq)
		}
	}
	return target
}

// ingestRecordLocked buffers one record and applies whatever became
// contiguous. It reports whether the record was new to the node: not
// fenced, not applied and not buffered already. Caller holds n.mu.
func (n *node) ingestRecordLocked(rec Record) (fresh bool) {
	if rec.Term < n.term {
		n.fenced.Add(1)
		if n.g.tel != nil {
			n.g.tel.fencedRecords.Inc()
		}
		return false
	}
	if rec.Term > n.term {
		n.adoptTermLocked(rec.Term)
	}
	if rec.Seq <= n.applied {
		n.dups.Add(1)
		return false
	}
	if _, dup := n.pending[rec.Seq]; dup {
		n.dups.Add(1)
		return false
	}
	n.pending[rec.Seq] = rec
	n.applyReadyLocked()
	return true
}

// applyReadyLocked folds the contiguous run starting at applied+1 into the
// model. It publishes a view whenever MaxBatch records await one; the
// caller publishes the rest (publishPendingLocked) once its run ends.
// Caller holds n.mu and the node is a follower with a live model.
func (n *node) applyReadyLocked() {
	//lint:ignore boundedretry drain loop, not a retry: every iteration deletes the pending key it read (bounded by len(pending)), and an Observe error advances the cursor instead of retrying the record
	for {
		rec, ok := n.pending[n.applied+1]
		if !ok {
			break
		}
		delete(n.pending, n.applied+1)
		if err := n.mlq.Observe(rec.Point, rec.Value); err != nil {
			// The stream already passed the publisher's validation; a
			// tree-level failure here is a divergence hazard, recorded for
			// the group to surface rather than silently skipped.
			n.g.recordApplyErr(n.id, rec.Seq, err)
			// The sequence still advances: the primary applied this record
			// (or failed identically); stalling forever on it would wedge
			// the follower behind an unfillable gap.
		}
		n.applied++
		n.unpublished++
		n.applRecs.Add(1)
		n.g.ev.EmitHop(events.SubReplica, events.KindApply, rec.Cause, rec.MintNS, n.idx+1, rec.Seq)
		if n.unpublished >= n.g.cfg.MaxBatch {
			n.publishPendingLocked()
		}
	}
}

// publishPending publishes the records applied since the last view, if any.
func (n *node) publishPending() {
	n.mu.Lock()
	n.publishPendingLocked()
	n.mu.Unlock()
}

// publishPendingLocked publishes one view covering every record applied
// since the previous one, if there are any. Caller holds n.mu.
func (n *node) publishPendingLocked() {
	count := n.unpublished
	if count == 0 {
		return
	}
	n.unpublished = 0
	n.epoch++
	n.publishViewLocked()
	// The follower's epoch publish covers the whole applied run (cause 0);
	// traces join it by the applied-sequence watermark in B.
	n.g.ev.EmitActor(events.SubReplica, events.KindEpochPublish, 0, n.idx+1, n.epoch, n.applied)
	if n.g.tel != nil {
		n.g.tel.appliedRecs(n.id, int64(count))
	}
}

// publishViewLocked snapshots the model into a fresh immutable view.
func (n *node) publishViewLocked() {
	n.cur.Store(&View{
		Snap:  n.mlq.Tree().Snapshot(),
		Seq:   n.applied,
		Epoch: n.epoch,
		Term:  n.term,
	})
}

// adoptTermLocked moves the node to a newer term, purging buffered records
// of dead lineages: a sequence number is only meaningful within the lineage
// that assigned it, so records fenced by the new term must never be applied.
func (n *node) adoptTermLocked(term uint64) {
	if term <= n.term {
		return
	}
	n.term = term
	for seq, rec := range n.pending {
		if rec.Term < term {
			delete(n.pending, seq)
			n.fenced.Add(1)
		}
	}
}

// catchUpTo drives the node to the target sequence from a journal: it
// fetches forward from applied+1, resyncs from the durable checkpoint when
// a checkpoint has absorbed the records it needs (ErrCompacted), and
// publishes one view per fetch that delivered records. Progress refills
// the attempt budget; fetchAttempts consecutive fetches or resyncs without
// progress abandon the round with ErrLagged (counted in FetchFails).
//
// The pump calls it with the gap evidence ingest leaves behind, and so do
// the quiesced callers — convergence barriers, rejoin, and failover
// promotion — with the primary's acknowledged sequence. A non-nil lin pins
// the fetches to an explicit (possibly dead) lineage: failover reads the
// demoted primary's durable journal, which no longer appears as the
// group's serving lineage.
func (n *node) catchUpTo(target uint64, lin *lineage) error {
	for attempt := 1; ; attempt++ {
		n.mu.Lock()
		applied := n.applied
		n.mu.Unlock()
		if applied >= target {
			return nil
		}
		var recs []Record
		var err error
		if lin != nil {
			// A dead lineage's journal never rotates again; read it straight.
			recs, err = n.g.fetchLineage(lin, applied+1)
		} else {
			recs, err = n.g.fetch(n.id, applied+1)
		}
		if err == ErrCompacted {
			// A checkpoint absorbed the records this node is missing: the
			// journal cannot fill the gap, only the checkpoint can. A
			// failed resync (say, racing a checkpoint rotation) spends an
			// attempt like a fetch without progress.
			if err = n.resyncFromCheckpoint(); err == nil {
				attempt = 0
				continue
			}
		}
		if err == nil && len(recs) > 0 {
			got := 0
			n.mu.Lock()
			for _, rec := range recs {
				if n.ingestRecordLocked(rec) {
					got++
				}
			}
			n.publishPendingLocked()
			n.mu.Unlock()
			n.caughtUp(got)
			if got > 0 {
				attempt = 0 // progress refills the budget
				continue
			}
		}
		if attempt >= fetchAttempts {
			n.fetchFail.Add(1)
			return fmt.Errorf("%w: %s stuck at seq %d of %d after %d fetch attempts (last error: %v)",
				ErrLagged, n.id, applied, target, fetchAttempts, err)
		}
	}
}

// caughtUp counts records a fetch or a resync delivered that the node had
// neither applied nor buffered.
func (n *node) caughtUp(got int) {
	if got == 0 {
		return
	}
	n.catchup.Add(int64(got))
	if n.g.tel != nil {
		n.g.tel.caughtUp(n.id, int64(got))
	}
}

// resyncFromCheckpoint rebuilds the node's model from the group's last
// durable catalog checkpoint: the recovery path of a replica so stale the
// journal no longer covers it (and the first step of every rejoin).
func (n *node) resyncFromCheckpoint() error {
	model, seq, term, err := n.g.loadCheckpoint()
	if err != nil {
		return err
	}
	n.mu.Lock()
	// The checkpoint delivers (applied, seq], less what was buffered.
	got := 0
	if seq > n.applied {
		got = int(seq - n.applied)
		for s := range n.pending {
			if s <= seq {
				got--
			}
		}
	}
	n.mlq = model
	n.applied = seq
	n.unpublished = 0
	n.pending = make(map[uint64]Record)
	n.adoptTermLocked(term)
	n.epoch++
	n.publishViewLocked()
	n.mu.Unlock()
	n.caughtUp(got)
	return nil
}

// stats snapshots the node's accounting.
func (n *node) stats() ReplicaStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return ReplicaStats{
		ID:         n.id,
		Role:       n.role,
		Term:       n.term,
		Applied:    n.applied,
		Epoch:      n.epoch,
		Pending:    len(n.pending),
		Streamed:   n.applRecs.Load(),
		Duplicates: n.dups.Load(),
		Fenced:     n.fenced.Load(),
		Catchup:    n.catchup.Load(),
		FetchFails: n.fetchFail.Load(),
	}
}

// ReplicaStats is one replica's point-in-time accounting.
type ReplicaStats struct {
	ID         string
	Role       Role
	Term       uint64
	Applied    uint64 // highest contiguous applied sequence
	Epoch      uint64 // replica's own publish generation
	Pending    int    // buffered out-of-order records
	Streamed   int64  // records applied from the live stream or catch-up
	Duplicates int64  // stream records dropped as duplicates
	Fenced     int64  // records dropped by term fencing
	Catchup    int64  // records recovered via journal catch-up/resync
	FetchFails int64  // catch-up rounds abandoned after the attempt budget
}

// sortStats orders replica stats by id for stable rendering.
func sortStats(s []ReplicaStats) {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}
