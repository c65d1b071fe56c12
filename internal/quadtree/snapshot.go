package quadtree

import (
	"io"

	"mlq/internal/geom"
)

// Snapshot is an immutable point-in-time copy of a Tree. It supports the
// whole read API — prediction, traversal, serialization — with no locking
// and no reference back to the live tree: the arena layout makes the copy
// two slice copies regardless of tree size.
//
// Snapshots are what the epoch-publishing concurrency layer in core hands to
// readers: any number of goroutines may use one Snapshot concurrently, since
// nothing mutates it after construction.
type Snapshot struct {
	cfg          Config
	g            *grid
	a            arena
	nodeCount    int
	thSSE        float64
	inserts      int64
	compressions int64
	removedNodes int64
}

// Snapshot returns an immutable copy of the tree's current state. The
// receiver may continue to learn; the snapshot never changes.
func (t *Tree) Snapshot() *Snapshot {
	cfg := t.cfg
	cfg.Region = t.cfg.Region.Clone()
	return &Snapshot{
		cfg:          cfg,
		g:            t.g,
		a:            t.a.clone(),
		nodeCount:    t.nodeCount,
		thSSE:        t.thSSE,
		inserts:      t.inserts,
		compressions: t.compressions,
		removedNodes: t.removedNodes,
	}
}

// Config returns the snapshot's effective configuration. Its MemoryLimit
// field is the live budget at snapshot time, after any Resize.
func (s *Snapshot) Config() Config { return s.cfg }

// MemoryLimit returns the live memory budget at snapshot time.
func (s *Snapshot) MemoryLimit() int { return s.cfg.MemoryLimit }

// NodeCount returns the number of nodes at snapshot time.
func (s *Snapshot) NodeCount() int { return s.nodeCount }

// MemoryUsed returns the memory the tree was charged at snapshot time.
func (s *Snapshot) MemoryUsed() int { return s.nodeCount * s.cfg.NodeBytes }

// Inserts returns the number of observations the tree had absorbed when the
// snapshot was taken.
func (s *Snapshot) Inserts() int64 { return s.inserts }

// Predict estimates the cost at query point p using the snapshot's default β.
func (s *Snapshot) Predict(p geom.Point) (value float64, ok bool) {
	return predictBeta(&s.a, s.g, p, s.cfg.Beta)
}

// PredictBeta is the Fig. 3 prediction algorithm against the frozen tree.
func (s *Snapshot) PredictBeta(p geom.Point, beta int) (value float64, ok bool) {
	return predictBeta(&s.a, s.g, p, beta)
}

// PredictEstimate is PredictBeta returning the full Estimate.
func (s *Snapshot) PredictEstimate(p geom.Point, beta int) (Estimate, bool) {
	return predictEstimate(&s.a, s.g, p, beta)
}

// PredictDepth returns the prediction and the depth it was taken from.
func (s *Snapshot) PredictDepth(p geom.Point, beta int) (value float64, depth int, ok bool) {
	return predictDepth(&s.a, s.g, p, beta)
}

// Walk visits every node depth-first, children in creation order, exactly
// like Tree.Walk.
func (s *Snapshot) Walk(fn func(Block) bool) {
	walkArena(&s.a, s.cfg, fn)
}

// WriteTo serializes the snapshot in the same frame format as Tree.WriteTo;
// a Tree decoded from it with Read reproduces the frozen state. Implements
// io.WriterTo and is safe to call concurrently.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	return writeArena(w, &s.a, s.cfg, s.thSSE, s.inserts, s.compressions, s.removedNodes)
}
