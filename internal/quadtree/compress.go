package quadtree

import (
	"cmp"
	"math"
	"time"
)

// victim is a compression candidate: a leaf's arena slot, its creation
// stamp and its key. Keys do not change while a pass runs — removing a
// leaf leaves every other node's summary, and therefore every other key,
// untouched — so each is computed once.
type victim struct {
	key   float64
	ref   int32
	stamp uint32
}

// before reports whether v ranks before w in the victim order: ascending
// key, and among equal keys the lower creation stamp, the older node,
// first. Stamps are unique, and cmp.Compare keeps the order total: a NaN
// key, which only a corrupt summary can produce, ranks first.
func (v victim) before(w victim) bool {
	if c := cmp.Compare(v.key, w.key); c != 0 {
		return c < 0
	}
	return v.stamp < w.stamp
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
// pseudo-random draw (for ablations — see harness.Ablate("policy", ...)).
type victimKey struct {
	a      *arena
	policy CompressionPolicy
	seed   uint64 // CompressRandom's per-pass seed
}

func (k *victimKey) of(n int32) float64 {
	switch k.policy {
	case CompressCount:
		return float64(k.a.nodes[n].count)
	case CompressRandom:
		return randomKey(k.a.nodes[n].stamp, k.seed)
	default:
		return k.a.sseg(n)
	}
}

// randomKey is CompressRandom's key for the node with the given creation
// stamp in the pass with the given seed: a SplitMix64 finalizer over both,
// so a node's draw depends on neither the order nor the slot it is ranked
// from.
func randomKey(stamp uint32, seed uint64) float64 {
	z := seed + uint64(stamp)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z >> 11)
}

// candidate returns the live leaf n as a victim under key.
func (k *victimKey) candidate(n int32) victim {
	return victim{key: k.of(n), ref: n, stamp: k.a.nodes[n].stamp}
}

// firstLeaves scans the slots once and returns the k first non-root leaves
// in victim order as a max-heap whose top is the last of them. It skips
// free slots. k is at least 1, and buf is the heap's storage.
func firstLeaves(a *arena, key *victimKey, k int, buf []victim) victimHeap {
	h := victimHeap{v: buf[:0], max: true}
	for i := int32(1); i < int32(len(a.nodes)); i++ {
		if !a.isLeaf(i) || a.isFree(i) {
			continue
		}
		c := key.candidate(i)
		if len(h.v) < k {
			h.push(c)
		} else if c.before(h.v[0]) {
			h.v[0] = c
			h.down(0, k)
		}
	}
	return h
}

// Compress runs one compression pass immediately, regardless of current
// memory use. Insert calls this automatically when the memory limit is
// exceeded; exposing it lets callers shrink a model ahead of a known burst.
func (t *Tree) Compress() { t.compress() }

// victimBuf caps the victim set a tree carries between passes, unless
// four passes' victims are more: the set holds
// max(4k, min(victimBuf, leaves/8)) leaves. Four passes' worth leaves
// enough survivors of one pass, whose keys did not move, to cover the next
// pass's k victims. A tree with fewer than 8·victimBuf leaves carries an
// eighth of them: refreshing a set costs about as much as rescanning that
// many leaves, so a larger one would not pay on a small tree.
const victimBuf = 64

// Mark bits of a slot, kept in victimSet.marks while the set is valid.
const (
	markDirty  uint8 = 1 << iota // an insert changed the slot's summary since the last pass
	markMember                   // the slot's leaf is in the heap
)

// victimSet is the compression queue a tree carries from one pass to the
// next, as Fig. 6 and §4.4 keep the SSEG queue across insertions. It is a
// min-heap of leaves in victim order, each ranking at or before a bound B,
// with the invariant: every live non-root leaf outside the heap ranks at
// or after B. So whenever the heap holds at least k leaves, the k first
// leaves of the whole tree are among them.
//
// Inserts move keys: SSEG(b) (Eq. 9) reads b's summary and its parent's
// mean, and an insert changes the summaries on its path only. Insert marks
// its path's slots dirty, and the next pass re-keys the members whose
// parent is dirty and the leaf children of every dirty slot; no other key
// moved. A slot is dirty only if its parent is, so marking stops at the
// first slot already dirty.
type victimSet struct {
	h     victimHeap // its storage is a prefix of buf
	buf   []victim
	bound victim
	// valid is false when the next pass must rescan every slot: before the
	// first pass, after Merge, Clone or Read, after a pass that packed the
	// arena, and after the stamps were renumbered. CompressRandom never
	// sets it: its keys change with every pass.
	valid bool
	// marks holds each slot's mark bits, and dirty lists the dirty slots,
	// each once; both are kept only while the set is valid.
	marks []uint8
	dirty []int32
	// rescans counts the passes that rebuilt the set by a slot scan.
	rescans int
}

// touch marks the path from the root to n dirty: an insert changed the
// summaries on it. It walks up from n and stops at the first slot already
// dirty, whose ancestors are dirty too.
func (s *victimSet) touch(a *arena, n int32) {
	if !s.valid {
		return
	}
	if len(s.marks) < len(a.nodes) {
		s.marks = append(s.marks, make([]uint8, len(a.nodes)-len(s.marks))...)
	}
	for ; n != noParent && s.marks[n]&markDirty == 0; n = a.nodes[n].parent {
		s.marks[n] |= markDirty
		s.dirty = append(s.dirty, n)
	}
}

// invalidate makes the next pass rescan every slot.
func (s *victimSet) invalidate() { s.valid = false }

// atOrBefore reports whether c ranks at or before the bound.
func (s *victimSet) atOrBefore(c victim) bool { return !s.bound.before(c) }

// refresh brings a valid set up to date with the dirty slots and returns
// its size. Members whose parent is dirty are re-keyed, and drop out if
// they stopped being leaves or their key moved past the bound; the leaf
// children of every dirty slot that are not members are re-keyed and
// admitted if they rank at or before the bound. Every other leaf kept its
// key, so the invariant holds after. The dirty marks are cleared.
func (s *victimSet) refresh(a *arena, key *victimKey) int {
	marks := s.marks
	v := s.h.v[:0]
	for _, c := range s.h.v {
		if marks[a.nodes[c.ref].parent]&markDirty != 0 {
			if c = key.candidate(c.ref); !a.isLeaf(c.ref) || !s.atOrBefore(c) {
				marks[c.ref] &^= markMember
				continue
			}
		}
		v = append(v, c)
	}
	s.h.v = v
	s.h.init()
	for _, n := range s.dirty {
		for _, e := range a.span(n) {
			if marks[e.ref]&markMember == 0 && a.isLeaf(e.ref) {
				if c := key.candidate(e.ref); s.atOrBefore(c) {
					s.admit(c)
				}
			}
		}
		marks[n] &^= markDirty
	}
	s.dirty = s.dirty[:0]
	return len(s.h.v)
}

// admit adds c, which ranks at or before the bound. When the heap is full,
// the later of c and the last member stays out and becomes the bound.
func (s *victimSet) admit(c victim) {
	h := &s.h
	if len(h.v) < cap(h.v) {
		h.push(c)
		s.marks[c.ref] |= markMember
		return
	}
	// The last member is a heap leaf: one of the second half's slots.
	last := len(h.v) / 2
	for i := last + 1; i < len(h.v); i++ {
		if h.v[last].before(h.v[i]) {
			last = i
		}
	}
	if c.before(h.v[last]) {
		// The last member has no heap children, so c only sifts up.
		s.bound = h.v[last]
		s.marks[s.bound.ref] &^= markMember
		h.v[last] = c
		s.marks[c.ref] |= markMember
		h.up(last)
	} else {
		s.bound = c
	}
}

// rescan rebuilds the set from one scan over the slots: the m first leaves,
// and the last of them as the bound, or an unbeatable bound when there are
// fewer. It reuses the carried storage when it is large enough, and clears
// every mark but the members'.
func (s *victimSet) rescan(a *arena, key *victimKey, m int) {
	if cap(s.buf) < m {
		s.buf = make([]victim, 0, max(victimBuf, min(m, a.leaves)))
	}
	s.h = firstLeaves(a, key, m, s.buf[:0:min(m, cap(s.buf))])
	s.bound = victim{key: math.Inf(1), stamp: math.MaxUint32}
	if len(s.h.v) == m {
		s.bound = s.h.v[0]
	}
	s.h.max = false
	s.h.init()
	if cap(s.marks) < len(a.nodes) {
		s.marks = make([]uint8, len(a.nodes))
	} else {
		s.marks = s.marks[:len(a.nodes)]
		clear(s.marks)
	}
	for _, c := range s.h.v {
		s.marks[c.ref] = markMember
	}
	s.dirty = s.dirty[:0]
	s.rescans++
}

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
// known before the pass starts. The carried victim set, refreshed, holds
// every leaf that ranks before its bound; if it holds at least k, the
// victims are among them. Otherwise one scan keeps the first
// max(k, min(victimBuf, leaves/8)) leaves, the last of them the bound. Either way every leaf outside
// the heap ranks at or after the bound, and at least k members rank at or
// before it, so a parent that becomes a leaf can be among the victims only if it
// ranks before the bound. The victims are therefore exactly the first k
// pops of a heap over every candidate. The heap's survivors and its bound
// carry over to the next pass. Evicted slots go on the arena's free list;
// nothing is compacted, since creation order lives in the stamps.
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
	m := max(4*k, min(victimBuf, t.a.leaves/8)) // the carried set's size
	if over := t.MemoryUsed() - t.cfg.MemoryLimit; over > needFree {
		k = (over + nb - 1) / nb
	}

	key := victimKey{a: &t.a, policy: t.cfg.Policy, seed: uint64(t.compressions)*2654435761 + 1}
	t.ssegQueueDepth = t.a.leaves
	vs := &t.vs
	if !vs.valid || vs.refresh(&t.a, &key) < k {
		vs.rescan(&t.a, &key, max(k, m))
	}
	h := &vs.h
	for removed := 0; removed < k && len(h.v) > 0; removed++ {
		leaf := h.pop().ref
		vs.marks[leaf] &^= markMember
		parent := t.a.nodes[leaf].parent
		t.a.release(leaf)
		t.nodeCount--
		t.removedNodes++
		if parent != 0 && t.a.isLeaf(parent) {
			if c := key.candidate(parent); c.before(vs.bound) {
				h.push(c)
				vs.marks[parent] |= markMember
			}
		}
	}
	vs.valid = t.cfg.Policy != CompressRandom
	if cap(vs.buf) > max(victimBuf, m) {
		// A Resize shrink's heap: too large to carry.
		vs.buf, h.v = nil, nil
		vs.invalidate()
	}

	// Free slots wait for addChild; only a pass that left most of the
	// arena free, as a Resize shrink does, packs it.
	if t.a.nfree > len(t.a.nodes)/2 {
		t.a.pack()
		vs.invalidate() // members' slots moved
	}
	t.a.tidyKids()
}
