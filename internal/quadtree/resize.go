package quadtree

import (
	"fmt"
	"math"
)

// MemoryLimit returns the live memory budget in bytes. It starts at
// Config.MemoryLimit and moves with every successful Resize; all invariant
// checks, serialization and snapshots follow this value, not the one the
// tree was constructed with.
func (t *Tree) MemoryLimit() int { return t.cfg.MemoryLimit }

// Resizes returns how many times Resize changed the live limit. Like the
// eager/deferred insert counters it is a process-lifetime diagnostic and is
// not serialized.
func (t *Tree) Resizes() int64 { return t.resizes }

// Resize moves the live memory budget to newLimit bytes. Shrinking drains
// the SSEG compression queue — the ordinary Fig. 6 pass, evicting cheapest
// leaves first — until MemoryUsed() <= newLimit; the root is never evicted,
// so the floor is one node (NodeBytes). Growing just raises the ceiling:
// splits that compression kept trimming can proceed on subsequent inserts.
//
// Resizing to the current limit is a guaranteed no-op: no counters move, no
// compression runs, and the tree's serialized form is bit-identical before
// and after the call.
func (t *Tree) Resize(newLimit int) error {
	if newLimit < t.cfg.NodeBytes {
		return fmt.Errorf("quadtree: Resize limit %d cannot hold even the root node (%d bytes)", newLimit, t.cfg.NodeBytes)
	}
	if newLimit == t.cfg.MemoryLimit {
		return nil
	}
	t.cfg.MemoryLimit = newLimit
	t.resizes++
	if t.MemoryUsed() > newLimit {
		t.compress()
	}
	if t.tel != nil {
		t.tel.publish(t)
	}
	return nil
}

// ShrinkLoss estimates the accuracy price of freeing the given number of
// bytes: compression would evict the ceil(bytes/NodeBytes) first leaves in
// the victim order (ascending SSEG, the older node first among equal keys;
// see compress), and each evicted leaf b makes queries landing in
// b fall back to its parent's average — an expected absolute-error increase
// of sqrt(SSEG(b)·C(b))/N per query, where N is the tree's total insert
// count (the leaf's points are C(b) of N, and its average sits
// sqrt(SSEG(b)/C(b)) away from the parent's). The returned value is that
// sum over the evicted set: estimated extra absolute prediction error per
// query, in the cost units the tree observes.
//
// The estimate prices the leaves that exist now, through the same slot
// scan compress falls back to — parents that would join the candidates mid-pass are
// not priced — so it is a lower bound on the true drain, which is exactly
// what a marginal-value comparison wants. Zero when the tree has no
// removable leaves or no inserts yet.
func (t *Tree) ShrinkLoss(bytes int) float64 {
	return arenaShrinkLoss(&t.a, t.cfg.NodeBytes, t.inserts, bytes)
}

// ShrinkLoss is Tree.ShrinkLoss against the frozen arena.
func (s *Snapshot) ShrinkLoss(bytes int) float64 {
	return arenaShrinkLoss(&s.a, s.cfg.NodeBytes, s.inserts, bytes)
}

func arenaShrinkLoss(a *arena, nodeBytes int, inserts int64, bytes int) float64 {
	if inserts <= 0 || bytes <= 0 {
		return 0
	}
	k := (bytes + nodeBytes - 1) / nodeBytes
	h := firstLeaves(a, &victimKey{a: a}, k, make([]victim, 0, min(k, a.leaves)))
	// Heap-sort the max-heap in place, so the victims are summed in
	// ascending victim order.
	for n := len(h.v) - 1; n > 0; n-- {
		h.v[0], h.v[n] = h.v[n], h.v[0]
		h.down(0, n)
	}
	var loss float64
	for _, c := range h.v {
		loss += math.Sqrt(c.key*float64(a.nodes[c.ref].count)) / float64(inserts)
	}
	return loss
}
