package quadtree

import "math"

// The tree's nodes live in a flat arena: a single []node slice addressed by
// int32 slot, with every node's children held as a contiguous span of a
// shared []kidRef slice. The layout replaces the seed implementation's
// pointer-linked nodes (parent pointer + per-node child slice) and buys
// three things at once:
//
//   - the hot Predict descent walks two flat slices instead of chasing heap
//     pointers, and finds children by binary search over a span sorted by
//     quadrant index instead of a linear scan;
//   - per-node Go memory shrinks from ~56 bytes + a 16-byte child entry +
//     one heap allocation per node to a 40-byte slot + an 8-byte child
//     entry, all in two allocations per tree;
//   - the whole tree is trivially copyable — Snapshot and Clone are a
//     handful of slice copies — which is what makes the lock-free
//     epoch/snapshot read path in core affordable.
//
// Two orderings coexist deliberately. Spans are *stored* sorted by quadrant
// index so lookups can binary-search. Everything that *enumerates* children
// — serialization, SSENC sums, Walk, Merge — visits them in creation order
// (ascending slot, see creationOrder), which is exactly the order the seed
// implementation's append-built child slices had. That equivalence is what
// keeps catalog frames byte-identical across the refactor: float summation
// order is observable in the last ULP.
//
// Slot allocation is append-only between compression passes, so ascending
// slot number is ascending creation time; the stable compaction at the end
// of each pass (see compress) preserves relative order, keeping the
// invariant across the tree's whole lifetime. Compression relies on it
// too: among leaves with equal keys it evicts the lower slot, the older
// node, first. The kids slice has no such order: spans are relocated to
// its tail as they grow, and compactKids keeps them in offset order.

// noParent marks the root's parent slot.
const noParent = int32(-1)

// deadParent marks a node slot removed by the current compression pass and
// awaiting compaction. No slot carries it outside compress.
const deadParent = int32(-2)

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
}

// arena is the flat node store. nodes[0] is always the root.
type arena struct {
	nodes []node
	kids  []kidRef

	// kidGarbage counts dead kidRef entries (spans abandoned by relocation
	// or shrunk by removal); compactKids reclaims them.
	kidGarbage int
}

// span returns n's child entries, sorted by quadrant index.
func (a *arena) span(n int32) []kidRef {
	nd := &a.nodes[n]
	return a.kids[nd.kidOff : nd.kidOff+nd.kidLen : nd.kidOff+nd.kidLen]
}

// child returns the slot of n's child with the given quadrant index, or -1.
// The span is sorted by index, so the lookup is a binary search.
func (a *arena) child(n int32, idx uint32) int32 {
	nd := &a.nodes[n]
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

// addChild allocates a fresh slot for a new child of parent and links it
// into the parent's span at its sorted position. Allocation is append-only:
// the new slot is len(nodes), so slot order is creation order.
func (a *arena) addChild(parent int32, idx uint32) int32 {
	ref := int32(len(a.nodes))
	a.nodes = append(a.nodes, node{parent: parent})

	nd := &a.nodes[parent]
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

// removeChild unlinks the child with the given quadrant index from n's
// span. The vacated tail slot of the span becomes garbage.
func (a *arena) removeChild(n int32, idx uint32) {
	nd := &a.nodes[n]
	lo, hi := nd.kidOff, nd.kidOff+nd.kidLen
	for lo < hi {
		mid := (lo + hi) >> 1
		if a.kids[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= nd.kidOff+nd.kidLen || a.kids[lo].idx != idx {
		return
	}
	copy(a.kids[lo:], a.kids[lo+1:nd.kidOff+nd.kidLen])
	nd.kidLen--
	a.kidGarbage++
}

// creationOrder appends n's child entries to buf in creation (ascending
// slot) order and returns the extended buffer. Spans are tiny (at most 2^d
// live entries, typically well under 16), so an insertion sort is both
// allocation-free and faster than sort.Slice.
func (a *arena) creationOrder(n int32, buf []kidRef) []kidRef {
	base := len(buf)
	buf = append(buf, a.span(n)...)
	ord := buf[base:]
	for i := 1; i < len(ord); i++ {
		e := ord[i]
		j := i
		for j > 0 && ord[j-1].ref > e.ref {
			ord[j] = ord[j-1]
			j--
		}
		ord[j] = e
	}
	return buf
}

// compactKids squeezes the garbage out of the kids slice in place. It
// first marks every live span: the span's first entry holds its owner,
// encoded as -(owner+2), and the owner's kidOff holds that entry's ref
// meanwhile. Live refs are at least 1, and a garbage entry is a stale copy
// of a live one or, after compactNodes, -1 for a removed slot, so a ref of
// -2 or below is a mark and nothing else. A
// sweep in offset order then moves each marked span down to the write
// position, which never passes the read position, so no span is
// overwritten before it moves. Both loops walk their slice in order, which
// keeps the pass cache-friendly on large trees. Spans keep their contents
// (index-sorted) but not their order by slot; nothing reads that order —
// enumeration goes through creationOrder. Leaves get the empty span at
// offset 0.
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
			nd.kidOff = 0
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

// compactNodes squeezes dead slots out of the node slice, remapping parents
// and child refs. The compaction is stable — surviving slots keep their
// relative order — which preserves the slot-order-is-creation-order
// invariant that creationOrder and the victim order depend on. It returns
// the number of live slots.
func (a *arena) compactNodes() int {
	remap := make([]int32, len(a.nodes))
	live := 0
	for i := range a.nodes {
		if a.nodes[i].parent == deadParent {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		if live != i {
			a.nodes[live] = a.nodes[i]
		}
		live++
	}
	if live == len(a.nodes) {
		return live
	}
	a.nodes = a.nodes[:live]
	for i := range a.nodes {
		if p := a.nodes[i].parent; p >= 0 {
			a.nodes[i].parent = remap[p]
		}
	}
	for i := range a.kids {
		if r := a.kids[i].ref; r >= 0 {
			a.kids[i].ref = remap[r]
		}
	}
	return live
}

// clone returns an independent copy of the arena — two slice copies. This
// is the whole snapshot cost of the epoch-publishing read path.
func (a *arena) clone() arena {
	nodes := make([]node, len(a.nodes))
	copy(nodes, a.nodes)
	kids := make([]kidRef, len(a.kids))
	copy(kids, a.kids)
	return arena{nodes: nodes, kids: kids, kidGarbage: a.kidGarbage}
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
