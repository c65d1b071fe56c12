package quadtree

import (
	"cmp"
	"math"
	"slices"
)

// The tree's nodes live in a flat arena: a single []node slice addressed by
// int32 slot, with every node's children held as a contiguous span of a
// shared []kidRef slice. The layout replaces the seed implementation's
// pointer-linked nodes (parent pointer + per-node child slice) and buys
// three things at once:
//
//   - the hot Predict descent walks two flat slices instead of chasing heap
//     pointers, and finds a child in a span sorted by quadrant index, at
//     the quadrant's own offset when the span is full, instead of by a
//     linear scan;
//   - per-node Go memory shrinks from ~56 bytes + a 16-byte child entry +
//     one heap allocation per node to a 40-byte slot + an 8-byte child
//     entry, all in two allocations per tree;
//   - the whole tree is trivially copyable — Snapshot and Clone are a
//     handful of slice copies — which is what makes the lock-free
//     epoch/snapshot read path in core affordable.
//
// Two orderings coexist deliberately. Spans are *stored* sorted by quadrant
// index so lookups can index a full span and binary-search a partial one. Everything that *enumerates* children
// — serialization, SSENC sums, Walk, Merge — visits them in creation order
// (ascending creation stamp, see creationOrder), which is exactly the order
// the seed implementation's append-built child slices had. That equivalence
// is what keeps catalog frames byte-identical across the refactor: float
// summation order is observable in the last ULP.
//
// Creation order lives in the nodes themselves: addChild gives every node
// the next value of a per-arena clock as its stamp, so the root is 0 and
// each node's stamp exceeds every stamp handed out before it. Slots carry
// no order. Compression puts evicted slots on a free list, linked through
// their kidOff, and addChild reuses them before it appends, so nothing is
// compacted between passes. Compression relies on the stamps too: among
// leaves with equal keys it evicts the lower stamp, the older node, first.
// The kids slice has no order either: spans are relocated to its tail as
// they grow, and compactKids keeps them in offset order.

// noParent marks the root's parent slot.
const noParent = int32(-1)

// freeParent marks a slot on the free list.
const freeParent = int32(-2)

// kidRef is one child entry: the quadrant index and the child's arena slot.
type kidRef struct {
	idx uint32
	ref int32
}

// node holds the summary information of one block (§4.1): the sum, count and
// sum of squares of the values of every data point that maps into the block
// (including points also counted by its descendants), plus the arena links.
type node struct {
	sum    float64
	ss     float64
	count  int64
	parent int32
	kidOff int32
	kidLen int32
	stamp  uint32 // creation stamp: the root is 0, every later node larger than all before it
}

// arena is the flat node store. nodes[0] is always the root and never free.
type arena struct {
	nodes []node
	kids  []kidRef

	// kidGarbage counts dead kidRef entries (spans abandoned by relocation
	// or shrunk by removal); compactKids reclaims them.
	kidGarbage int

	// free is the first slot of the free list, 0 when it is empty; each
	// free slot's kidOff holds the next. nfree counts the free slots.
	free  int32
	nfree int
	// leaves counts the live non-root leaves: the nodes compression may
	// evict. addChild and release keep it.
	leaves int
	// clock is the stamp of the most recently created node.
	clock uint32
	// full is 2^dims, the length of a span that holds every quadrant.
	full int32
}

// newArena returns the arena of a dims-dimensional tree holding only the
// root.
func newArena(dims int) arena {
	return arena{nodes: []node{{parent: noParent}}, full: 1 << uint(dims)}
}

// span returns n's child entries, sorted by quadrant index.
func (a *arena) span(n int32) []kidRef {
	nd := &a.nodes[n]
	return a.kids[nd.kidOff : nd.kidOff+nd.kidLen : nd.kidOff+nd.kidLen]
}

// child returns the slot of n's child with the quadrant index idx < 2^dims,
// or -1. A span is strictly sorted by index and every index is below
// 2^dims, so a full span holds quadrant idx at offset idx; a partial one
// is binary-searched.
func (a *arena) child(n int32, idx uint32) int32 {
	nd := &a.nodes[n]
	if nd.kidLen == a.full {
		return a.kids[nd.kidOff+int32(idx)].ref
	}
	lo, hi := nd.kidOff, nd.kidOff+nd.kidLen
	for lo < hi {
		mid := (lo + hi) >> 1
		if a.kids[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < nd.kidOff+nd.kidLen && a.kids[lo].idx == idx {
		return a.kids[lo].ref
	}
	return -1
}

// isLeaf reports whether the slot has no children.
func (a *arena) isLeaf(n int32) bool { return a.nodes[n].kidLen == 0 }

// isFree reports whether the slot is on the free list.
func (a *arena) isFree(n int32) bool { return a.nodes[n].parent == freeParent }

// addChild creates a new child of parent, stamped with the next clock
// value, in a slot taken from the free list or else appended, and links it
// into the parent's span at its sorted position.
func (a *arena) addChild(parent int32, idx uint32) int32 {
	if a.clock == math.MaxUint32 {
		a.restamp()
	}
	a.clock++
	fresh := node{parent: parent, stamp: a.clock}
	ref := a.free
	if ref != 0 {
		a.free = a.nodes[ref].kidOff
		a.nfree--
		a.nodes[ref] = fresh
	} else {
		ref = int32(len(a.nodes))
		a.nodes = append(a.nodes, fresh)
	}

	nd := &a.nodes[parent]
	if nd.kidLen == 0 && parent != 0 {
		a.leaves-- // the parent stops being a leaf
	}
	a.leaves++
	// Sorted insertion position within the span.
	lo, hi := nd.kidOff, nd.kidOff+nd.kidLen
	for lo < hi {
		mid := (lo + hi) >> 1
		if a.kids[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if nd.kidOff+nd.kidLen == int32(len(a.kids)) {
		// The span sits at the tail of the kids slice: grow it in place.
		a.kids = append(a.kids, kidRef{})
		copy(a.kids[pos+1:], a.kids[pos:nd.kidOff+nd.kidLen])
		a.kids[pos] = kidRef{idx: idx, ref: ref}
		nd.kidLen++
		return ref
	}
	// Relocate the span to the tail with the new entry spliced in; the old
	// region becomes garbage until the next compaction.
	newOff := int32(len(a.kids))
	a.kids = append(a.kids, a.kids[nd.kidOff:pos]...)
	a.kids = append(a.kids, kidRef{idx: idx, ref: ref})
	a.kids = append(a.kids, a.kids[pos:nd.kidOff+nd.kidLen]...)
	a.kidGarbage += int(nd.kidLen)
	nd.kidOff = newOff
	nd.kidLen++
	return ref
}

// release evicts the leaf n: it unlinks n from its parent's span, whose
// vacated tail entry becomes garbage, and puts the slot on the free list.
func (a *arena) release(n int32) {
	p := a.nodes[n].parent
	span := a.span(p)
	i := slices.IndexFunc(span, func(c kidRef) bool { return c.ref == n })
	copy(span[i:], span[i+1:])
	a.nodes[p].kidLen--
	a.kidGarbage++
	a.nodes[n] = node{parent: freeParent, kidOff: a.free}
	a.free = n
	a.nfree++
	a.leaves--
	if p != 0 && a.isLeaf(p) {
		a.leaves++ // the parent becomes a leaf
	}
}

// pack moves the live nodes of the highest slots into the lowest free
// slots until the live nodes fill the slots below len(nodes)−nfree, then
// truncates the free slots away. A moved node's parent entry and its
// children's parent links are rewritten in place; its stamp moves with it,
// so creation order is untouched and no remap table is needed.
func (a *arena) pack() {
	lo, hi := int32(1), int32(len(a.nodes)-1)
	for {
		for lo < hi && !a.isFree(lo) {
			lo++
		}
		for lo < hi && a.isFree(hi) {
			hi--
		}
		if lo >= hi {
			break
		}
		nd := a.nodes[hi]
		a.nodes[lo] = nd
		for _, c := range a.span(lo) {
			a.nodes[c.ref].parent = lo
		}
		pk := a.span(nd.parent)
		for i := range pk {
			if pk[i].ref == hi {
				pk[i].ref = lo
				break
			}
		}
		lo++
		hi--
	}
	a.nodes = a.nodes[:len(a.nodes)-a.nfree]
	a.free, a.nfree = 0, 0
}

// restamp renumbers the live nodes' stamps densely in stamp order, so the
// clock can keep counting instead of wrapping. Only the relative order of
// stamps carries meaning, and it is unchanged.
func (a *arena) restamp() {
	live := make([]int32, 0, len(a.nodes)-a.nfree)
	for n := range a.nodes {
		if !a.isFree(int32(n)) {
			live = append(live, int32(n))
		}
	}
	slices.SortFunc(live, func(x, y int32) int { return cmp.Compare(a.nodes[x].stamp, a.nodes[y].stamp) })
	for s, n := range live {
		a.nodes[n].stamp = uint32(s)
	}
	a.clock = uint32(len(live) - 1)
}

// creationOrder appends n's child entries to buf in creation (ascending
// stamp) order and returns the extended buffer. Spans are tiny (at most 2^d
// live entries, typically well under 16), so an insertion sort is both
// allocation-free and faster than sort.Slice.
func (a *arena) creationOrder(n int32, buf []kidRef) []kidRef {
	base := len(buf)
	buf = append(buf, a.span(n)...)
	ord := buf[base:]
	for i := 1; i < len(ord); i++ {
		e := ord[i]
		st := a.nodes[e.ref].stamp
		j := i
		for j > 0 && a.nodes[ord[j-1].ref].stamp > st {
			ord[j] = ord[j-1]
			j--
		}
		ord[j] = e
	}
	return buf
}

// tidyKids compacts the kids slice once garbage is over half of it (and
// more than a few entries): the one rule both Insert and compress apply.
func (a *arena) tidyKids() {
	if a.kidGarbage > len(a.kids)/2 && a.kidGarbage > 64 {
		a.compactKids()
	}
}

// compactKids squeezes the garbage out of the kids slice in place. It
// first marks every live span: the span's first entry holds its owner,
// encoded as -(owner+2), and the owner's kidOff holds that entry's ref
// meanwhile. Refs are at least 1 — a garbage entry is a stale copy of a
// live one — so a ref of -2 or below is a mark and nothing else. A sweep in
// offset order then moves each marked span down to the write
// position, which never passes the read position, so no span is
// overwritten before it moves. Both loops walk their slice in order, which
// keeps the pass cache-friendly on large trees. Spans keep their contents
// (index-sorted) but not their order by slot; nothing reads that order —
// enumeration goes through creationOrder. Leaves get the empty span at
// offset 0; free slots keep their free-list links.
//
// The slice is reallocated only when its spare capacity exceeds a quarter
// of its length, so a tree that shrank does not keep its largest kids
// slice; the new one has an eighth of spare room, enough for the span
// relocations between two compression passes of a tree at its budget, so
// that one pass's shrink is not undone by the next few inserts' growth and
// redone by the next pass.
func (a *arena) compactKids() {
	if a.kidGarbage == 0 {
		return
	}
	for o := range a.nodes {
		nd := &a.nodes[o]
		if nd.kidLen == 0 {
			if nd.parent != freeParent {
				nd.kidOff = 0
			}
			continue
		}
		first := &a.kids[nd.kidOff]
		nd.kidOff, first.ref = first.ref, -int32(o)-2
	}
	w := 0
	for p := 0; p < len(a.kids); {
		r := a.kids[p].ref
		if r > -2 {
			p++ // garbage
			continue
		}
		nd := &a.nodes[-r-2]
		a.kids[p].ref = nd.kidOff
		n := int(nd.kidLen)
		copy(a.kids[w:], a.kids[p:p+n])
		nd.kidOff = int32(w)
		w += n
		p += n
	}
	a.kids = a.kids[:w]
	if cap(a.kids)-w > w/4 {
		a.kids = append(make([]kidRef, 0, w+w/8), a.kids...)
	}
	a.kidGarbage = 0
}

// clone returns an independent copy of the arena — two slice copies. This
// is the whole snapshot cost of the epoch-publishing read path.
// slices.Clone allocates without zeroing what it is about to overwrite,
// which a make into the struct field followed by copy does not, and it
// keeps a nil slice nil.
func (a *arena) clone() arena {
	c := *a
	c.nodes = slices.Clone(a.nodes)
	c.kids = slices.Clone(a.kids)
	return c
}

// --- summary math (Eq. 3, 4, 9) ---

// avg returns S(b)/C(b) (Eq. 3), or 0 for an empty block.
func (a *arena) avg(n int32) float64 {
	nd := &a.nodes[n]
	if nd.count == 0 {
		return 0
	}
	return nd.sum / float64(nd.count)
}

// sse returns SSE(b) = SS(b) − C(b)·AVG(b)² (Eq. 4), clamped at zero
// against floating-point cancellation.
func (a *arena) sse(n int32) float64 {
	nd := &a.nodes[n]
	if nd.count == 0 {
		return 0
	}
	v := nd.ss - nd.sum*nd.sum/float64(nd.count)
	if v < 0 {
		return 0
	}
	return v
}

// sseg returns SSEG(b) = C(b)·(AVG(p) − AVG(b))² (Eq. 9), the increase in
// TSSENC caused by removing b. The root has no parent and is never removed.
func (a *arena) sseg(n int32) float64 {
	nd := &a.nodes[n]
	if nd.parent == noParent {
		return math.Inf(1)
	}
	d := a.avg(nd.parent) - a.avg(n)
	return float64(nd.count) * d * d
}

// add folds one observation into the slot's summary.
func (a *arena) add(n int32, v float64) {
	nd := &a.nodes[n]
	nd.sum += v
	nd.ss += v * v
	nd.count++
}
