package quadtree

import "time"

// heapItem pairs a leaf candidate with its (fixed) SSEG key. SSEG values do
// not change while compression runs — removing a leaf leaves every other
// node's summary, and therefore every other SSEG, untouched — so keys are
// computed once at push time.
type heapItem struct {
	ref  int32
	sseg float64
}

// leafHeap is a min-heap of removal candidates ordered by SSEG. init, push
// and pop make exactly the comparisons and swaps of container/heap's Init,
// Push and Pop, in the same order, so the pop sequence — ties included —
// is the one the interface-based heap produced; only the interface calls
// and the boxing of every pushed and popped item are gone.
type leafHeap []heapItem

// init heapifies h in place (container/heap.Init).
func (h leafHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push adds it to the heap (container/heap.Push).
func (h *leafHeap) push(it heapItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum item (container/heap.Pop).
func (h *leafHeap) pop() heapItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h leafHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].sseg < h[i].sseg) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h leafHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].sseg < h[j1].sseg {
			j = j2 // right child
		}
		if !(h[j].sseg < h[i].sseg) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// victimKey returns the ordering key for compression victims under the
// configured policy: SSEG (the paper's), point count, or a deterministic
// pseudo-random key (for ablations — see harness.Ablate("policy", ...)).
func (t *Tree) victimKey() func(int32) float64 {
	switch t.cfg.Policy {
	case CompressCount:
		return func(n int32) float64 { return float64(t.a.nodes[n].count) }
	case CompressRandom:
		seq := uint64(t.compressions)*2654435761 + 1
		return func(n int32) float64 {
			seq = seq*6364136223846793005 + 1442695040888963407
			return float64(seq >> 11)
		}
	default:
		return t.a.sseg
	}
}

// Compress runs one compression pass immediately, regardless of current
// memory use. Insert calls this automatically when the memory limit is
// exceeded; exposing it lets callers shrink a model ahead of a known burst.
func (t *Tree) Compress() { t.compress() }

// compress implements the algorithm of Fig. 6. It removes leaves in
// ascending SSEG order — the nodes with the fewest points and the averages
// closest to their parents' — until at least γ of the allocated memory has
// been freed and usage is back under the limit. Parents that become leaves
// join the candidate queue, making the pass incremental bottom-up.
//
// Summaries of surviving nodes are untouched: every ancestor already counts
// the removed leaf's points, so predictions simply fall back to coarser
// resolutions (the minimal increase in TSSENC the SSEG ordering guarantees).
//
// Victims are collected depth-first with children visited in creation
// order — the same enumeration the pointer-linked implementation's child
// slices produced — so heap layout, tie-breaking and the stateful random
// policy's key assignment are all preserved bit-for-bit. The heap is a
// typed copy of container/heap's algorithm (see leafHeap), so the pop order
// is unchanged too. The pass ends with a stable arena compaction, which
// keeps slot order equal to creation order for the next pass. Every buffer
// whose size follows the tree's (the heap, the compaction's remap table)
// lives only for the pass; only the depth-bounded collection stack is kept
// on the Tree.
func (t *Tree) compress() {
	//lint:ignore detertime stopwatch feeding APC/AUC accounting; the duration is never consulted by any decision
	start := time.Now()
	defer func() {
		d := time.Since(start)
		t.compressTime += d
		t.compressions++
		if t.cfg.Strategy == Lazy {
			// Re-snapshot th_SSE = α·SSE(root) (Eq. 7). Before the
			// first compression the threshold is zero, so lazy
			// behaves eagerly until memory first fills up.
			t.thSSE = t.cfg.Alpha * t.a.sse(0)
		}
		if t.tel != nil {
			t.tel.compressDone(t, d)
		}
	}()

	key := t.victimKey()
	// Every pop precedes at most one push, so the heap never outgrows the
	// initial leaf set.
	h := make(leafHeap, 0, t.a.leafCount())
	// An explicit stack replaces the recursive descent: children are pushed
	// in reverse creation order, so they pop — and their subtrees are
	// visited — in creation order, the recursion's pre-order.
	stack := append(t.collectScratch[:0], kidRef{ref: 0})
	for len(stack) > 0 {
		n := stack[len(stack)-1].ref
		stack = stack[:len(stack)-1]
		if t.a.isLeaf(n) {
			if n != 0 {
				h = append(h, heapItem{ref: n, sseg: key(n)})
			}
			continue
		}
		base := len(stack)
		stack = t.a.creationOrder(n, stack)
		for i, j := base, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
	t.collectScratch = stack[:0]
	h.init()
	t.ssegQueueDepth = len(h)

	needFree := int(t.cfg.Gamma * float64(t.cfg.MemoryLimit))
	if needFree < t.cfg.NodeBytes {
		needFree = t.cfg.NodeBytes // always make progress
	}
	freed := 0
	for len(h) > 0 {
		if freed >= needFree && t.MemoryUsed() <= t.cfg.MemoryLimit {
			break
		}
		leaf := h.pop().ref
		parent := t.a.nodes[leaf].parent
		// Unlink. The parent's span holds the only reference to the leaf.
		for _, c := range t.a.span(parent) {
			if c.ref == leaf {
				t.a.removeChild(parent, c.idx)
				break
			}
		}
		t.a.nodes[leaf].parent = deadParent
		t.nodeCount--
		t.removedNodes++
		freed += t.cfg.NodeBytes
		if parent != 0 && t.a.isLeaf(parent) {
			h.push(heapItem{ref: parent, sseg: key(parent)})
		}
	}

	// Stable compaction: squeeze the dead slots out of the arena and drop
	// the kids-slice garbage, so slot order keeps equalling creation order.
	t.a.compactNodes()
	t.a.compactKids()
}
