// Package quadtree implements the memory-limited quadtree (MLQ) of He, Lee
// and Snapp (EDBT 2004): a d-dimensional quadtree that stores only summary
// statistics — sum, count and sum of squares of the observed values — in
// every node, supports fast point prediction at multiple resolutions, grows
// under an eager or lazy insertion strategy, and compresses itself back under
// a strict memory budget by discarding the leaves whose removal least
// increases the expected prediction error (smallest SSEG, Eq. 9).
//
// The tree never stores individual data points; its memory use is exactly
// NodeCount() * Config.NodeBytes and is kept at or below Config.MemoryLimit
// by automatic compression.
//
// Nodes live in a flat arena (see arena.go) rather than as pointer-linked
// heap objects, which makes the whole tree copyable in a few slice copies;
// Snapshot exploits that to hand out immutable read-only views that are safe
// for concurrent prediction while the tree keeps learning.
package quadtree

import (
	"fmt"
	"math"
	"time"

	"mlq/internal/geom"
)

// Strategy selects how eagerly Insert partitions blocks (§4.4).
type Strategy int

const (
	// Eager partitions down to the maximum depth λ on every insertion
	// (the paper's MLQ-E; equivalent to a zero SSE threshold).
	Eager Strategy = iota
	// Lazy partitions a leaf only once its SSE reaches th_SSE = α·SSE(root)
	// (the paper's MLQ-L). The threshold is re-snapshotted at every
	// compression and is zero before the first one.
	Lazy
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Eager:
		return "MLQ-E"
	case Lazy:
		return "MLQ-L"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DefaultNodeBytes charges each node its summary payload: sum (8 bytes) +
// sum of squares (8) + count (4). See DESIGN.md §2 for the rationale.
const DefaultNodeBytes = 20

// Config parameterizes a Tree. The zero value is not usable; Region must be
// set. All other fields default to the paper's tuned values (§5.1).
type Config struct {
	// Region is the full data space the tree partitions. Points inserted
	// or queried outside it are clamped onto its boundary.
	Region geom.Rect
	// Strategy selects eager (MLQ-E) or lazy (MLQ-L) insertion.
	Strategy Strategy
	// MaxDepth is λ, the maximum tree depth (root is depth 0).
	// Default 6.
	MaxDepth int
	// Alpha scales the lazy SSE partitioning threshold (Eq. 7).
	// Default 0.05.
	Alpha float64
	// Beta is the default minimum block count for Predict (Fig. 3).
	// Default 1.
	Beta int
	// Gamma is the minimum fraction of allocated memory each compression
	// must free (Fig. 6). Default 0.001 (the paper's 0.1%).
	Gamma float64
	// MemoryLimit is the memory budget in bytes. Default 1843 (1.8 KB).
	MemoryLimit int
	// NodeBytes is the memory charged per node. Default DefaultNodeBytes.
	NodeBytes int
	// Policy selects the compression victim ordering. Default
	// CompressSSEG (the paper's). The alternatives exist for ablation:
	// they quantify how much the SSEG ordering actually buys.
	Policy CompressionPolicy
}

// CompressionPolicy orders compression victims.
type CompressionPolicy int

const (
	// CompressSSEG removes leaves in ascending SSEG order (Eq. 9) — the
	// paper's policy, minimizing the increase in TSSENC.
	CompressSSEG CompressionPolicy = iota
	// CompressCount removes leaves with the fewest data points first,
	// ignoring how much their average differs from their parent's.
	CompressCount
	// CompressRandom removes leaves in a deterministic pseudo-random
	// order — the ablation floor.
	CompressRandom
)

// String names the policy.
func (p CompressionPolicy) String() string {
	switch p {
	case CompressSSEG:
		return "sseg"
	case CompressCount:
		return "count"
	case CompressRandom:
		return "random"
	default:
		return fmt.Sprintf("CompressionPolicy(%d)", int(p))
	}
}

// withDefaults returns a copy of c with unset fields filled in.
func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 6
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Beta == 0 {
		c.Beta = 1
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.Gamma == 0 {
		c.Gamma = 0.001
	}
	if c.MemoryLimit == 0 {
		c.MemoryLimit = 1843
	}
	if c.NodeBytes == 0 {
		c.NodeBytes = DefaultNodeBytes
	}
	return c
}

// validate reports configuration errors after defaulting.
func (c Config) validate() error {
	if c.Region.Dims() == 0 {
		return fmt.Errorf("quadtree: Config.Region must be set")
	}
	if c.Region.Dims() > 20 {
		return fmt.Errorf("quadtree: %d dimensions yields 2^%d children per node; at most 20 supported", c.Region.Dims(), c.Region.Dims())
	}
	// The rule Read applies through geom.NewRect: a region it could not
	// read back is not one New builds.
	if err := c.Region.Validate(); err != nil {
		return fmt.Errorf("quadtree: Config.Region: %w", err)
	}
	// Beyond ~52 halvings a float64 interval's midpoint equals its lower
	// bound, so depths past 64 are meaningless and only invite abuse
	// (e.g. a corrupted serialized header making Insert build a
	// billion-node chain).
	if c.MaxDepth < 0 || c.MaxDepth > 64 {
		return fmt.Errorf("quadtree: MaxDepth must be in [0, 64], got %d", c.MaxDepth)
	}
	if c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) {
		return fmt.Errorf("quadtree: Alpha must be finite and >= 0, got %g", c.Alpha)
	}
	if c.Beta < 1 {
		return fmt.Errorf("quadtree: Beta must be >= 1, got %d", c.Beta)
	}
	if !(c.Gamma > 0 && c.Gamma <= 1) { // written to also reject NaN
		return fmt.Errorf("quadtree: Gamma must be in (0, 1], got %g", c.Gamma)
	}
	if c.NodeBytes <= 0 {
		return fmt.Errorf("quadtree: NodeBytes must be > 0, got %d", c.NodeBytes)
	}
	if c.MemoryLimit < c.NodeBytes {
		return fmt.Errorf("quadtree: MemoryLimit %d cannot hold even the root node (%d bytes)", c.MemoryLimit, c.NodeBytes)
	}
	switch c.Strategy {
	case Eager, Lazy:
	default:
		return fmt.Errorf("quadtree: unknown strategy %d", int(c.Strategy))
	}
	switch c.Policy {
	case CompressSSEG, CompressCount, CompressRandom:
	default:
		return fmt.Errorf("quadtree: unknown compression policy %d", int(c.Policy))
	}
	return nil
}

// Tree is a memory-limited quadtree. It is not safe for concurrent use; for
// concurrent readers take a Snapshot (or wrap the core.Model built on it
// with the snapshot-publishing machinery in core).
type Tree struct {
	cfg       Config
	g         *grid // the descent's bisection grid, shared with snapshots and clones
	a         arena
	nodeCount int
	thSSE     float64 // lazy partitioning threshold; 0 until first compression

	inserts         int64
	eagerInserts    int64 // inserts that partitioned down to MaxDepth
	deferredInserts int64 // inserts stopped early by the lazy SSE threshold
	compressions    int64
	removedNodes    int64
	resizes         int64 // live-limit changes applied by Resize
	ssegQueueDepth  int   // leaves competing in the latest compression
	compressTime    time.Duration

	vs victimSet // compression candidates carried between passes

	tel *treeTelemetry // nil unless Instrument was called
}

// New returns an empty tree for the given configuration.
func New(cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Region = cfg.Region.Clone()
	return &Tree{
		cfg:       cfg,
		g:         newGrid(cfg.Region, cfg.MaxDepth),
		a:         newArena(cfg.Region.Dims()),
		nodeCount: 1,
	}, nil
}

// Config returns the tree's effective (defaulted) configuration. Its
// MemoryLimit field reports the live budget — after a Resize it differs from
// the value the tree was constructed with.
func (t *Tree) Config() Config { return t.cfg }

// NodeCount returns the current number of nodes, including the root.
func (t *Tree) NodeCount() int { return t.nodeCount }

// MemoryUsed returns the memory charged to the tree in bytes.
func (t *Tree) MemoryUsed() int { return t.nodeCount * t.cfg.NodeBytes }

// Inserts returns the number of data points inserted so far.
func (t *Tree) Inserts() int64 { return t.inserts }

// EagerInserts returns how many inserts partitioned all the way down to
// MaxDepth (every insert under MLQ-E; under MLQ-L those that kept finding
// refinable nodes).
func (t *Tree) EagerInserts() int64 { return t.eagerInserts }

// DeferredInserts returns how many inserts stopped early because the leaf's
// SSE was under the lazy threshold th_SSE — the work MLQ-L's deferral
// avoids. Always zero under MLQ-E.
func (t *Tree) DeferredInserts() int64 { return t.deferredInserts }

// SSEGQueueDepth returns how many leaves competed for removal in the most
// recent compression pass: every non-root leaf, whether the pass ranked it
// by a rescan or through its carried victim set. The arena keeps the count
// as nodes are created and evicted. Zero before the first compression.
func (t *Tree) SSEGQueueDepth() int { return t.ssegQueueDepth }

// Compressions returns how many compression passes have run.
func (t *Tree) Compressions() int64 { return t.compressions }

// CompressTime returns the cumulative wall time spent compressing. Callers
// timing Insert can subtract this to separate insertion cost (IC) from
// compression cost (CC) as in the paper's Experiment 2.
func (t *Tree) CompressTime() time.Duration { return t.compressTime }

// RemovedNodes returns the total number of nodes discarded by compression.
func (t *Tree) RemovedNodes() int64 { return t.removedNodes }

// Threshold returns the current lazy partitioning threshold th_SSE.
func (t *Tree) Threshold() float64 {
	if t.cfg.Strategy == Eager {
		return 0
	}
	return t.thSSE
}

// Insert records one UDF execution: the data point p (the model variables)
// observed to have the given cost value. Points outside the region are
// clamped onto it. Implements the algorithm of Fig. 4, then compresses if
// the memory limit is exceeded.
func (t *Tree) Insert(p geom.Point, value float64) error {
	if len(p) != t.cfg.Region.Dims() {
		return fmt.Errorf("quadtree: point has %d dims, tree has %d", len(p), t.cfg.Region.Dims())
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("quadtree: cost value must be finite, got %g", value)
	}
	// The grid resolves the first D levels' quadrant indices at once;
	// below D the block bounds narrow in stack buffers (heap ones past 8
	// dimensions), so Insert allocates only when it grows the arena.
	code := t.g.path(p)
	var qbuf, lobuf, hibuf [8]float64
	var q, lo, hi []float64

	th := t.Threshold()
	clock := t.a.clock
	cn := int32(0)
	t.a.add(cn, value)
	deferred := false
	for depth := 0; depth < t.cfg.MaxDepth; depth++ {
		// Fig. 4 line 3-4: descend while the current node should be
		// refined (SSE at or above threshold) or already has children.
		if t.a.isLeaf(cn) && t.a.sse(cn) < th {
			deferred = true
			break
		}
		var idx uint32
		if depth < t.g.depth {
			idx = t.g.quadrant(code, depth)
		} else {
			if depth == t.g.depth {
				q, lo, hi = scratch(len(p), &qbuf, &lobuf, &hibuf)
				t.g.block(p, code, q, lo, hi)
			}
			idx = bisect(q, lo, hi)
		}
		child := t.a.child(cn, idx)
		if child < 0 {
			child = t.a.addChild(cn, idx)
			t.nodeCount++
		}
		cn = child
		t.a.add(cn, value)
	}
	if t.a.clock < clock {
		t.vs.invalidate() // restamped: the carried stamps are stale
	}
	t.vs.touch(&t.a, cn)
	t.inserts++
	if deferred {
		t.deferredInserts++
	} else {
		t.eagerInserts++
	}

	// Span relocations leave holes in the kids slice; compress and this
	// branch bound them by the same rule.
	if t.MemoryUsed() > t.cfg.MemoryLimit {
		t.compress()
	} else {
		t.a.tidyKids()
	}
	if t.tel != nil {
		t.tel.publish(t)
	}
	return nil
}

// Predict estimates the cost at query point p using the tree's default β.
// ok is false only when the tree has seen no data at all.
func (t *Tree) Predict(p geom.Point) (value float64, ok bool) {
	return t.PredictBeta(p, t.cfg.Beta)
}

// PredictBeta implements the prediction algorithm of Fig. 3: it returns the
// average value of the lowest (deepest) block containing p whose count is at
// least beta. If no block qualifies (fewer than beta points seen in total),
// it falls back to the root average so that predictions are available from
// the very first observation.
func (t *Tree) PredictBeta(p geom.Point, beta int) (value float64, ok bool) {
	return predictBeta(&t.a, t.g, p, beta)
}

// Estimate is a prediction with its supporting evidence: the block's mean,
// the standard deviation of the observations behind it, how many there
// were, and the block's depth. Because every node stores the sum of squares
// (§4.1), uncertainty comes for free — an optimizer can hedge plans when
// StdDev/Value is large.
type Estimate struct {
	Value  float64
	StdDev float64
	Count  int64
	Depth  int
}

// finiteAvg guards the prediction path against the finite-cost invariant:
// Insert rejects NaN/Inf observations, so a non-finite block average can
// only mean summary corruption — report "no information" rather than let it
// poison a plan choice (§4.2's SSE math corrupts silently past this point).
func finiteAvg(a *arena, n int32) (float64, bool) {
	v := a.avg(n)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// PredictEstimate is PredictBeta returning the full Estimate. ok is false
// only when the tree has seen no data at all.
func (t *Tree) PredictEstimate(p geom.Point, beta int) (Estimate, bool) {
	return predictEstimate(&t.a, t.g, p, beta)
}

// PredictDepth returns, alongside the prediction, the depth of the block the
// prediction was taken from. Useful for diagnostics and tests.
func (t *Tree) PredictDepth(p geom.Point, beta int) (value float64, depth int, ok bool) {
	return predictDepth(&t.a, t.g, p, beta)
}

// The prediction algorithms take the arena and grid explicitly so that
// Tree and the immutable Snapshot share one implementation of the hot path.

// descend clamps p into the region and walks from the root to the deepest
// block containing it, returning the lowest slot whose count is at least
// beta and its depth (Fig. 3's search). This is the hot path every
// prediction pays, so it avoids the conveniences the mutation paths use:
// the arena slices are hoisted into locals, each node is loaded exactly
// once per level, and arena.child's lookup is inlined over the shared kids
// slice: a full span is indexed by the quadrant, a partial one
// binary-searched. The quadrant index of each level comes from the tree's
// bisection grid (see grid), which resolves the point's cell along every
// dimension once, so the first D levels evaluate no midpoint at all; they
// are the slots geom.Rect.ChildIndex and Child would visit, since the
// grid's boundaries are their midpoints bit for bit. A descent that
// reaches depth D and can go on continues in descendPast.
func descend(a *arena, g *grid, p geom.Point, beta int) (best int32, bestDepth int) {
	nodes, kids, full := a.nodes, a.kids, a.full
	code := g.path(p)
	cn := int32(0)
	for d := 0; ; d++ {
		nd := &nodes[cn]
		if nd.count >= int64(beta) {
			best, bestDepth = cn, d
		}
		if nd.kidLen == 0 {
			return best, bestDepth
		}
		if d == g.depth {
			return descendPast(a, g, p, code, cn, d, beta, best, bestDepth)
		}
		idx := g.quadrant(code, d)
		if nd.kidLen == full {
			cn = kids[nd.kidOff+int32(idx)].ref
			continue
		}
		l, h := nd.kidOff, nd.kidOff+nd.kidLen
		for l < h {
			m := (l + h) >> 1
			if kids[m].idx < idx {
				l = m + 1
			} else {
				h = m
			}
		}
		if l >= nd.kidOff+nd.kidLen || kids[l].idx != idx {
			return best, bestDepth
		}
		cn = kids[l].ref
	}
}

// descendPast continues descend below the grid, from the slot cn at depth
// d = D whose summary descend has already weighed: the block bounds start
// at the grid cell's and narrow by the midpoint arithmetic, in scratch
// buffers on the stack up to 8 dimensions.
func descendPast(a *arena, g *grid, p geom.Point, code uint64, cn int32, d, beta int, best int32, bestDepth int) (int32, int) {
	var qbuf, lobuf, hibuf [8]float64
	q, lo, hi := scratch(len(p), &qbuf, &lobuf, &hibuf)
	g.block(p, code, q, lo, hi)
	for {
		if cn = a.child(cn, bisect(q, lo, hi)); cn < 0 {
			return best, bestDepth
		}
		d++
		if a.nodes[cn].count >= int64(beta) {
			best, bestDepth = cn, d
		}
	}
}

// predictBeta implements Fig. 3 over an arena.
func predictBeta(a *arena, g *grid, p geom.Point, beta int) (value float64, ok bool) {
	if a.nodes[0].count == 0 {
		return 0, false
	}
	if beta < 1 {
		beta = 1
	}
	best, _ := descend(a, g, p, beta)
	return finiteAvg(a, best)
}

// predictEstimate implements PredictEstimate over an arena.
func predictEstimate(a *arena, g *grid, p geom.Point, beta int) (Estimate, bool) {
	if a.nodes[0].count == 0 {
		return Estimate{}, false
	}
	if beta < 1 {
		beta = 1
	}
	best, bestDepth := descend(a, g, p, beta)
	var std float64
	if a.nodes[best].count > 0 {
		std = math.Sqrt(a.sse(best) / float64(a.nodes[best].count))
	}
	v, ok := finiteAvg(a, best)
	if !ok {
		return Estimate{}, false
	}
	return Estimate{
		Value:  v,
		StdDev: std,
		Count:  a.nodes[best].count,
		Depth:  bestDepth,
	}, true
}

// predictDepth implements PredictDepth over an arena.
func predictDepth(a *arena, g *grid, p geom.Point, beta int) (value float64, depth int, ok bool) {
	if a.nodes[0].count == 0 {
		return 0, 0, false
	}
	if beta < 1 {
		beta = 1
	}
	best, bestDepth := descend(a, g, p, beta)
	v, ok := finiteAvg(a, best)
	return v, bestDepth, ok
}
