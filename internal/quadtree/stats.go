package quadtree

import (
	"fmt"
	"io"
	"strings"

	"mlq/internal/geom"
)

// Block is the read-only view of one node handed to Walk callbacks.
type Block struct {
	// Region is the hyper-rectangle the node indexes.
	Region geom.Rect
	// Depth is the node's depth (root is 0).
	Depth int
	// Sum, SumSquares and Count are the node's summary information.
	Sum, SumSquares float64
	Count           int64
	// Children is the number of non-empty children.
	Children int
	// Full reports whether the node has all 2^d children (a "full node"
	// in the paper's terminology; non-full nodes contribute to TSSENC).
	Full bool
}

// Avg returns the block's average value (Eq. 3).
func (b Block) Avg() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// SSE returns the block's sum of squared errors (Eq. 4).
func (b Block) SSE() float64 {
	if b.Count == 0 {
		return 0
	}
	v := b.SumSquares - b.Sum*b.Sum/float64(b.Count)
	if v < 0 {
		return 0
	}
	return v
}

// Walk visits every node in depth-first order, parents before children and
// children in creation order. The callback returns false to stop the walk
// early.
func (t *Tree) Walk(fn func(Block) bool) {
	walkArena(&t.a, t.cfg, fn)
}

// walkArena is the shared traversal behind Tree.Walk and Snapshot.Walk. It
// allocates its creation-order views per node instead of using tree-owned
// scratch, so callbacks may re-enter the tree and snapshots may be walked
// concurrently.
func walkArena(a *arena, cfg Config, fn func(Block) bool) {
	var rec func(n int32, region geom.Rect, depth int) bool
	rec = func(n int32, region geom.Rect, depth int) bool {
		nd := a.nodes[n]
		b := Block{
			Region:     region,
			Depth:      depth,
			Sum:        nd.sum,
			SumSquares: nd.ss,
			Count:      nd.count,
			Children:   int(nd.kidLen),
			Full:       nd.kidLen == a.full,
		}
		if !fn(b) {
			return false
		}
		for _, c := range a.creationOrder(n, nil) {
			if !rec(c.ref, region.Child(c.idx), depth+1) {
				return false
			}
		}
		return true
	}
	rec(0, cfg.Region, 0)
}

// ssenc returns SSENC(b) (Eq. 5): the sum of squared deviations, from b's
// own average, of the points in b that do not map into any of b's children.
// It is derived purely from summaries:
//
//	SSENC(b) = SS_nc − 2·AVG(b)·S_nc + C_nc·AVG(b)²
//
// where the _nc aggregates are b's minus the sum of its children's, summed
// in creation order so the floating-point result matches the pointer-linked
// implementation to the last bit.
func ssenc(a *arena, n int32, scratch []kidRef) (float64, []kidRef) {
	nd := a.nodes[n]
	if nd.count == 0 {
		return 0, scratch
	}
	sNC, ssNC := nd.sum, nd.ss
	cNC := nd.count
	base := len(scratch)
	scratch = a.creationOrder(n, scratch)
	for _, c := range scratch[base:] {
		cn := a.nodes[c.ref]
		sNC -= cn.sum
		ssNC -= cn.ss
		cNC -= cn.count
	}
	scratch = scratch[:base]
	avg := a.avg(n)
	v := ssNC - 2*avg*sNC + float64(cNC)*avg*avg
	if v < 0 {
		return 0, scratch
	}
	return v, scratch
}

// TSSENC returns the tree's total SSENC over non-full nodes (Eq. 6), the
// quantity compression minimizes the increase of.
func (t *Tree) TSSENC() float64 {
	return tssenc(&t.a)
}

func tssenc(a *arena) float64 {
	var total float64
	var scratch []kidRef
	var rec func(n int32)
	rec = func(n int32) {
		nd := a.nodes[n]
		if nd.kidLen != a.full {
			var v float64
			v, scratch = ssenc(a, n, scratch)
			total += v
		}
		base := len(scratch)
		scratch = a.creationOrder(n, scratch)
		order := append([]kidRef(nil), scratch[base:]...)
		scratch = scratch[:base]
		for _, c := range order {
			rec(c.ref)
		}
	}
	rec(0)
	return total
}

// Stats summarizes the tree's current shape.
type Stats struct {
	Nodes           int
	Leaves          int
	MaxDepth        int
	MemoryBytes     int
	MemoryLimit     int // live budget at stats time (moves with Resize)
	Inserts         int64
	EagerInserts    int64
	DeferredInserts int64
	Compressions    int64
	RemovedNodes    int64
	Resizes         int64
	SSEGQueueDepth  int
	TSSENC          float64
}

// Stats returns a snapshot of the tree's shape and lifetime counters.
func (t *Tree) Stats() Stats {
	s := Stats{
		Nodes:           t.nodeCount,
		MemoryBytes:     t.MemoryUsed(),
		MemoryLimit:     t.MemoryLimit(),
		Inserts:         t.inserts,
		EagerInserts:    t.eagerInserts,
		DeferredInserts: t.deferredInserts,
		Compressions:    t.compressions,
		RemovedNodes:    t.removedNodes,
		Resizes:         t.resizes,
		SSEGQueueDepth:  t.ssegQueueDepth,
		TSSENC:          t.TSSENC(),
	}
	t.Walk(func(b Block) bool {
		if b.Children == 0 {
			s.Leaves++
		}
		if b.Depth > s.MaxDepth {
			s.MaxDepth = b.Depth
		}
		return true
	})
	return s
}

// Validate checks the structural invariants of the tree — the paper's
// summary invariants and the arena layout invariants — and returns the
// first violation found, or nil. It is used heavily by the property tests
// and is cheap enough to run in production assertions.
func (t *Tree) Validate() error {
	if len(t.a.nodes) == 0 {
		return fmt.Errorf("empty arena")
	}
	if t.a.nodes[0].parent != noParent {
		return fmt.Errorf("root has a parent")
	}
	// Every slot is reachable from the root exactly once or on the free
	// list exactly once, never both: seen marks each slot met either way.
	seen := make([]bool, len(t.a.nodes))
	nfree := 0
	for n := t.a.free; n != 0; n = t.a.nodes[n].kidOff {
		if n < 0 || int(n) >= len(t.a.nodes) {
			return fmt.Errorf("free list links to slot %d outside the arena of %d", n, len(t.a.nodes))
		}
		if seen[n] {
			return fmt.Errorf("free list visits slot %d twice", n)
		}
		if !t.a.isFree(n) {
			return fmt.Errorf("free list holds slot %d, which is not marked free", n)
		}
		seen[n] = true
		nfree++
	}
	if nfree != t.a.nfree {
		return fmt.Errorf("free list holds %d slots but %d are tracked", nfree, t.a.nfree)
	}
	if len(t.a.nodes)-nfree != t.nodeCount {
		return fmt.Errorf("arena has %d slots, %d free, but %d nodes are tracked", len(t.a.nodes), nfree, t.nodeCount)
	}
	leaves := 0
	count := 0
	var rec func(n int32, depth int) error
	rec = func(n int32, depth int) error {
		count++
		nd := t.a.nodes[n]
		if depth > t.cfg.MaxDepth {
			return fmt.Errorf("node at depth %d exceeds MaxDepth %d", depth, t.cfg.MaxDepth)
		}
		if seen[n] {
			return fmt.Errorf("slot %d reached twice, or reached and free, at depth %d", n, depth)
		}
		seen[n] = true
		if (n == 0) != (nd.stamp == 0) || nd.stamp > t.a.clock {
			return fmt.Errorf("slot %d has stamp %d: want 0 for the root only and at most the clock %d", n, nd.stamp, t.a.clock)
		}
		if n != 0 && nd.kidLen == 0 {
			leaves++
		}
		if nd.count < 0 {
			return fmt.Errorf("negative count %d at depth %d", nd.count, depth)
		}
		if t.a.sse(n) < 0 {
			return fmt.Errorf("negative SSE at depth %d", depth)
		}
		if nd.kidOff < 0 || nd.kidLen < 0 || int(nd.kidOff)+int(nd.kidLen) > len(t.a.kids) {
			return fmt.Errorf("span [%d,%d) of slot %d out of kids bounds %d", nd.kidOff, nd.kidOff+nd.kidLen, n, len(t.a.kids))
		}
		span := t.a.span(n)
		var childCount int64
		var childSS float64
		for i, c := range span {
			if c.idx >= uint32(t.a.full) {
				return fmt.Errorf("child index %d out of range (capacity %d)", c.idx, t.a.full)
			}
			if i > 0 && span[i-1].idx >= c.idx {
				return fmt.Errorf("span of slot %d not strictly sorted by quadrant index at position %d", n, i)
			}
			if c.ref <= 0 || int(c.ref) >= len(t.a.nodes) {
				return fmt.Errorf("child ref %d of slot %d out of arena bounds", c.ref, n)
			}
			cn := t.a.nodes[c.ref]
			if cn.parent != n {
				return fmt.Errorf("broken parent link at depth %d child %d", depth, c.idx)
			}
			if cn.count == 0 {
				return fmt.Errorf("empty child node at depth %d child %d", depth+1, c.idx)
			}
			childCount += cn.count
			childSS += cn.ss
			if err := rec(c.ref, depth+1); err != nil {
				return err
			}
		}
		if childCount > nd.count {
			return fmt.Errorf("children count %d exceeds parent count %d at depth %d", childCount, nd.count, depth)
		}
		if childSS > nd.ss*(1+1e-9)+1e-9 {
			return fmt.Errorf("children sum-of-squares %g exceeds parent %g at depth %d", childSS, nd.ss, depth)
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return err
	}
	if count != t.nodeCount {
		return fmt.Errorf("node count mismatch: counted %d, tracked %d", count, t.nodeCount)
	}
	if leaves != t.a.leaves {
		return fmt.Errorf("leaf count mismatch: counted %d non-root leaves, tracked %d", leaves, t.a.leaves)
	}
	// The over-limit check compares against the live limit, not the
	// construction-time one: a Resize shrink mid-workload moves the budget
	// and compresses, and must not read as an invariant violation.
	if t.inserts > 0 && t.MemoryUsed() > t.MemoryLimit() && t.nodeCount > 1 {
		return fmt.Errorf("memory %d over live limit %d after insert", t.MemoryUsed(), t.MemoryLimit())
	}
	return nil
}

// Clone returns a deep copy of the tree: two slice copies, regardless of
// size. An optimizer can snapshot a model under a brief lock and keep
// predicting from the copy while the original continues to learn — or use
// Snapshot, which returns an immutable view sharing the same cost.
func (t *Tree) Clone() *Tree {
	// The clone deliberately does not inherit t.tel: two trees publishing
	// into one set of gauges would interleave meaninglessly. Instrument the
	// clone separately if it should be observable.
	clone := &Tree{
		cfg:             t.cfg,
		g:               t.g,
		a:               t.a.clone(),
		nodeCount:       t.nodeCount,
		thSSE:           t.thSSE,
		inserts:         t.inserts,
		eagerInserts:    t.eagerInserts,
		deferredInserts: t.deferredInserts,
		compressions:    t.compressions,
		removedNodes:    t.removedNodes,
		resizes:         t.resizes,
		ssegQueueDepth:  t.ssegQueueDepth,
		compressTime:    t.compressTime,
	}
	clone.cfg.Region = t.cfg.Region.Clone()
	return clone
}

// Dump writes an indented ASCII rendering of the tree to w, one node per
// line with its depth, region, count and average. Intended for debugging and
// the mlqtool CLI.
func (t *Tree) Dump(w io.Writer) {
	t.Walk(func(b Block) bool {
		fmt.Fprintf(w, "%s%s count=%d avg=%.4g sse=%.4g\n",
			strings.Repeat("  ", b.Depth), b.Region, b.Count, b.Avg(), b.SSE())
		return true
	})
}
