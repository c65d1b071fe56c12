package quadtree

import (
	"cmp"
	"math"
	"time"
)

// victim is a compression candidate: a leaf's arena slot and its key. Keys
// do not change while a pass runs — removing a leaf leaves every other
// node's summary, and therefore every other key, untouched — so each is
// computed once.
type victim struct {
	key float64
	ref int32
}

// before reports whether v ranks before w in the victim order: ascending
// key, and among equal keys the lower arena slot first. Slots are allocated
// append-only and compaction is stable, so the lower slot is the older
// node. cmp.Compare keeps the order total: a NaN key, which only a corrupt
// summary can produce, ranks first.
func (v victim) before(w victim) bool {
	if c := cmp.Compare(v.key, w.key); c != 0 {
		return c < 0
	}
	return v.ref < w.ref
}

// victimHeap is a binary heap of victims: a min-heap in victim order, or,
// with max set, a max-heap whose top is the last of its victims.
type victimHeap struct {
	v   []victim
	max bool
}

// less reports whether slot i belongs above slot j.
func (h *victimHeap) less(i, j int) bool {
	if h.max {
		return h.v[j].before(h.v[i])
	}
	return h.v[i].before(h.v[j])
}

func (h *victimHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.v[i], h.v[j] = h.v[j], h.v[i]
		j = i
	}
}

// down sifts slot i down within the first n slots.
func (h *victimHeap) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.v[i], h.v[j] = h.v[j], h.v[i]
		i = j
	}
}

func (h *victimHeap) init() {
	for i := len(h.v)/2 - 1; i >= 0; i-- {
		h.down(i, len(h.v))
	}
}

// push adds x. The storage is sized up front, so push never reallocates;
// that keeps a pass's heap on its stack.
func (h *victimHeap) push(x victim) {
	n := len(h.v)
	h.v = h.v[:n+1]
	h.v[n] = x
	h.up(n)
}

func (h *victimHeap) pop() victim {
	n := len(h.v) - 1
	h.v[0], h.v[n] = h.v[n], h.v[0]
	h.down(0, n)
	x := h.v[n]
	h.v = h.v[:n]
	return x
}

// victimKey is the key the victim order ranks leaves by under a
// compression policy: SSEG (the paper's), point count, or a deterministic
// pseudo-random stream (for ablations — see harness.Ablate("policy", ...)).
type victimKey struct {
	a      *arena
	policy CompressionPolicy
	seq    uint64 // CompressRandom's stream state
}

func (k *victimKey) of(n int32) float64 {
	switch k.policy {
	case CompressCount:
		return float64(k.a.nodes[n].count)
	case CompressRandom:
		k.seq = k.seq*6364136223846793005 + 1442695040888963407
		return float64(k.seq >> 11)
	default:
		return k.a.sseg(n)
	}
}

// firstLeaves scans the slots once, in ascending order, and returns the k
// first non-root leaves in victim order as a max-heap whose top is the last
// of them, together with the number of non-root leaves scanned. Keys are
// drawn in slot order, which CompressRandom's stream depends on. k is at
// least 1, and buf is the heap's storage. Outside a compression pass every
// slot is live.
func firstLeaves(a *arena, key *victimKey, k int, buf []victim) (h victimHeap, leaves int) {
	h = victimHeap{v: buf[:0], max: true}
	for i := 1; i < len(a.nodes); i++ {
		if !a.isLeaf(int32(i)) {
			continue
		}
		leaves++
		c := victim{key: key.of(int32(i)), ref: int32(i)}
		if len(h.v) < k {
			h.push(c)
		} else if c.before(h.v[0]) {
			h.v[0] = c
			h.down(0, k)
		}
	}
	return h, leaves
}

// Compress runs one compression pass immediately, regardless of current
// memory use. Insert calls this automatically when the memory limit is
// exceeded; exposing it lets callers shrink a model ahead of a known burst.
func (t *Tree) Compress() { t.compress() }

// victimBuf is the number of victims a pass keeps on the stack: it covers
// γ·MemoryLimit/NodeBytes for budgets up to 64·NodeBytes/γ (1.28 MB at the
// defaults). Larger passes allocate their heap.
const victimBuf = 64

// compress implements the algorithm of Fig. 6. It removes leaves in victim
// order — ascending SSEG, the nodes with the fewest points and the averages
// closest to their parents', and the older node first among equal keys —
// until at least γ of the allocated memory has been freed and usage is back
// under the limit. Parents that become leaves join the candidates, making
// the pass incremental bottom-up.
//
// Summaries of surviving nodes are untouched: every ancestor already counts
// the removed leaf's points, so predictions simply fall back to coarser
// resolutions (the minimal increase in TSSENC the SSEG ordering guarantees).
//
// Each eviction frees exactly NodeBytes, so the number of victims k is
// known before the pass starts. One scan keeps the k first leaves; the last
// of them is the bound. Every leaf the scan left out ranks after the bound,
// and the bound is not evicted before the k-th pop, so a parent that
// becomes a leaf can be among the victims only if it ranks before the
// bound. The victims are therefore exactly the first k pops of a heap over
// every candidate. The pass ends with a stable arena compaction, which
// keeps slot order equal to creation order for the next pass. No buffer
// outlives the pass.
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

	nb := t.cfg.NodeBytes
	needFree := int(t.cfg.Gamma * float64(t.cfg.MemoryLimit))
	if needFree < nb {
		needFree = nb // always make progress
	}
	k := (needFree + nb - 1) / nb
	if over := t.MemoryUsed() - t.cfg.MemoryLimit; over > needFree {
		k = (over + nb - 1) / nb
	}

	var stack [victimBuf]victim
	buf := stack[:0]
	if k > len(stack) {
		buf = make([]victim, 0, min(k, len(t.a.nodes)))
	}
	key := victimKey{a: &t.a, policy: t.cfg.Policy, seq: uint64(t.compressions)*2654435761 + 1}
	h, leaves := firstLeaves(&t.a, &key, k, buf)
	t.ssegQueueDepth = leaves
	// With fewer than k leaves every parent is admitted.
	bound := victim{key: math.Inf(1), ref: math.MaxInt32}
	if len(h.v) == k {
		bound = h.v[0]
	}
	h.max = false
	h.init()

	for removed := 0; removed < k && len(h.v) > 0; removed++ {
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
		if parent != 0 && t.a.isLeaf(parent) {
			c := victim{key: key.of(parent), ref: parent}
			if c.before(bound) {
				h.push(c)
			}
		}
	}

	// Stable compaction: squeeze the dead slots out of the arena and drop
	// the kids-slice garbage, so slot order keeps equalling creation order.
	t.a.compactNodes()
	t.a.compactKids()
}
