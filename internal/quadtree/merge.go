package quadtree

import "fmt"

// Merge folds another tree's knowledge into this one. Because nodes hold
// only additive summaries (sum, count, sum of squares), merging is exact:
// the result represents the union of both trees' observations, as if every
// data point had been inserted into one tree — up to each tree's own prior
// compression. After the structural merge the tree compresses itself back
// under its memory limit.
//
// Merge enables parallel model training: shard a workload across goroutines
// or machines, train independent trees, and merge them. Both trees must
// share the same region and dimensionality; other configuration (strategy,
// λ, memory) follows the receiver. The other tree is not modified.
func (t *Tree) Merge(other *Tree) error {
	if other == nil {
		return fmt.Errorf("quadtree: cannot merge a nil tree")
	}
	a, b := t.cfg.Region, other.cfg.Region
	if a.Dims() != b.Dims() {
		return fmt.Errorf("quadtree: merge dimensionality mismatch: %d vs %d", a.Dims(), b.Dims())
	}
	for i := range a.Lo {
		//lint:ignore floatguard merging requires bit-identical regions; epsilon-close regions are different trees
		if a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			return fmt.Errorf("quadtree: merge region mismatch at dimension %d", i)
		}
	}
	t.mergeNode(0, &other.a, 0, 0)
	t.vs.invalidate() // keys moved all over the tree
	t.inserts += other.inserts
	if t.MemoryUsed() > t.cfg.MemoryLimit {
		t.compress()
	}
	return nil
}

// mergeNode adds src's summaries into dst recursively, deep-copying any
// subtree dst lacks (respecting the receiver's MaxDepth: deeper source
// nodes fold into the deepest kept ancestor implicitly, since ancestors
// already carry their descendants' points in their own summaries). Source
// children are visited in creation order so the copied nodes are created in
// the same order an insert-by-insert replay would have produced.
func (t *Tree) mergeNode(dst int32, src *arena, srcN int32, depth int) {
	sn := src.nodes[srcN]
	d := &t.a.nodes[dst]
	d.sum += sn.sum
	d.ss += sn.ss
	d.count += sn.count
	var scratch []kidRef
	scratch = src.creationOrder(srcN, scratch)
	for _, c := range scratch {
		if depth >= t.cfg.MaxDepth {
			break
		}
		child := t.a.child(dst, c.idx)
		if child < 0 {
			child = t.a.addChild(dst, c.idx)
			t.nodeCount++
		}
		t.mergeNode(child, src, c.ref, depth+1)
	}
}
