package quadtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mlq/internal/geom"
)

// refModel is a brute-force oracle for the quadtree's summary math: it keeps
// every inserted point and recomputes block aggregates exactly. Property
// tests compare the tree's incremental summaries against it.
type refModel struct {
	region geom.Rect
	pts    []geom.Point
	vals   []float64
}

func newRef(region geom.Rect) *refModel {
	return &refModel{region: region.Clone()}
}

func (r *refModel) insert(p geom.Point, v float64) {
	r.pts = append(r.pts, r.region.Clamp(p))
	r.vals = append(r.vals, v)
}

// aggregates returns (sum, count, sumsquares) over the points inside block.
func (r *refModel) aggregates(block geom.Rect) (s float64, c int64, ss float64) {
	for i, p := range r.pts {
		if block.Contains(p) {
			s += r.vals[i]
			ss += r.vals[i] * r.vals[i]
			c++
		}
	}
	return s, c, ss
}

// sse returns the exact Σ(v−avg)² over points inside block.
func (r *refModel) sse(block geom.Rect) float64 {
	s, c, _ := r.aggregates(block)
	if c == 0 {
		return 0
	}
	avg := s / float64(c)
	var t float64
	for i, p := range r.pts {
		if block.Contains(p) {
			d := r.vals[i] - avg
			t += d * d
		}
	}
	return t
}

// ssenc returns the exact SSENC (Eq. 5): squared deviations from block's own
// average of points in block that are in none of the child blocks.
func (r *refModel) ssenc(block geom.Rect, children []geom.Rect) float64 {
	s, c, _ := r.aggregates(block)
	if c == 0 {
		return 0
	}
	avg := s / float64(c)
	var t float64
	for i, p := range r.pts {
		if !block.Contains(p) {
			continue
		}
		covered := false
		for _, ch := range children {
			if ch.Contains(p) {
				covered = true
				break
			}
		}
		if !covered {
			d := r.vals[i] - avg
			t += d * d
		}
	}
	return t
}

// predict mirrors Fig. 3 for an eager, uncompressed tree of max depth λ:
// the average of the deepest block on the query point's path holding at
// least beta points (falling back to the root average).
func (r *refModel) predict(p geom.Point, beta int, maxDepth int) (float64, bool) {
	if len(r.pts) == 0 {
		return 0, false
	}
	p = r.region.Clamp(p)
	block := r.region
	bestS, bestC, _ := r.aggregates(block)
	for d := 0; d < maxDepth; d++ {
		child := block.Child(block.ChildIndex(p))
		s, c, _ := r.aggregates(child)
		if c == 0 {
			break // the eager tree has no node here
		}
		if c >= int64(beta) {
			bestS, bestC = s, c
		}
		block = child
	}
	if bestC == 0 {
		return 0, true
	}
	return bestS / float64(bestC), true
}

func approxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol || diff <= tol*scale
}

// oracleCompress is compress by brute force, the reference for its victim
// order. It computes k the way compress does; then, k times, it rescans
// every live non-root leaf for the first one in (key, slot) order and
// removes it, so a parent that became a leaf competes with every other
// leaf. SSEG is Eq. 9 recomputed from the raw summaries. CompressRandom
// keys are drawn when a node becomes a candidate: for the initial leaves in
// slot order, then for each parent as it becomes a leaf.
func oracleCompress(t *Tree) {
	a := &t.a
	nb := t.cfg.NodeBytes
	needFree := int(t.cfg.Gamma * float64(t.cfg.MemoryLimit))
	if needFree < nb {
		needFree = nb
	}
	k := (needFree + nb - 1) / nb
	if over := t.MemoryUsed() - t.cfg.MemoryLimit; (over+nb-1)/nb > k {
		k = (over + nb - 1) / nb
	}
	seq := uint64(t.compressions)*2654435761 + 1
	drawn := map[int32]float64{}
	key := func(n int32) float64 {
		nd := a.nodes[n]
		switch t.cfg.Policy {
		case CompressCount:
			return float64(nd.count)
		case CompressRandom:
			if v, ok := drawn[n]; ok {
				return v
			}
			seq = seq*6364136223846793005 + 1442695040888963407
			drawn[n] = float64(seq >> 11)
			return drawn[n]
		default:
			p := a.nodes[nd.parent]
			d := p.sum/float64(p.count) - nd.sum/float64(nd.count)
			return float64(nd.count) * d * d
		}
	}
	live := func(n int) bool { return n > 0 && a.nodes[n].parent != deadParent && a.nodes[n].kidLen == 0 }
	for n := range a.nodes {
		if live(n) {
			key(int32(n))
		}
	}
	for removed := 0; removed < k; removed++ {
		best := int32(-1)
		for n := range a.nodes {
			if !live(n) {
				continue
			}
			if best < 0 || key(int32(n)) < key(best) {
				best = int32(n) // slots ascend, so the first of equal keys stays
			}
		}
		if best < 0 {
			break
		}
		parent := a.nodes[best].parent
		for _, c := range a.span(parent) {
			if c.ref == best {
				a.removeChild(parent, c.idx)
				break
			}
		}
		a.nodes[best].parent = deadParent
		t.nodeCount--
		t.removedNodes++
		if parent != 0 && a.isLeaf(parent) {
			key(parent)
		}
	}
	a.compactNodes()
	a.compactKids()
	t.compressions++
	if t.cfg.Strategy == Lazy {
		t.thSSE = t.cfg.Alpha * a.sse(0)
	}
}

// refShrinkLoss is the sort-based ShrinkLoss that the slot-scan selection
// replaced: every non-root leaf, sorted by (SSEG, slot), the first
// ceil(bytes/NodeBytes) summed in that order.
func refShrinkLoss(a *arena, nodeBytes int, inserts int64, bytes int) float64 {
	if inserts <= 0 || bytes <= 0 {
		return 0
	}
	var leaves []victim
	for i := 1; i < len(a.nodes); i++ {
		if a.isLeaf(int32(i)) {
			leaves = append(leaves, victim{ref: int32(i), key: a.sseg(int32(i))})
		}
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].key != leaves[j].key { //lint:ignore floatguard exact key equality only routes the deterministic slot-order tie-break
			return leaves[i].key < leaves[j].key
		}
		return leaves[i].ref < leaves[j].ref
	})
	k := (bytes + nodeBytes - 1) / nodeBytes
	if k > len(leaves) {
		k = len(leaves)
	}
	var loss float64
	for _, it := range leaves[:k] {
		loss += math.Sqrt(it.key*float64(a.nodes[it.ref].count)) / float64(inserts)
	}
	return loss
}

// summaries maps every node's block, keyed by its depth and lower corner,
// to its S, SS and C bits.
func summaries(tr *Tree) map[string][3]uint64 {
	m := map[string][3]uint64{}
	tr.Walk(func(b Block) bool {
		key := []byte{byte(b.Depth)}
		for _, v := range b.Region.Lo {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		m[string(key)] = [3]uint64{math.Float64bits(b.Sum), math.Float64bits(b.SumSquares), uint64(b.Count)}
		return true
	})
	return m
}

func frame(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressMatchesOracle runs seeded mixes of inserts, explicit
// compressions and Resize shrinks and grows through a Tree and through a
// twin whose every compression pass is oracleCompress. After each step the
// two must serialize to the same bytes, a pass must leave every surviving
// node's S/C/SS as it found them, and ShrinkLoss must equal the sort-based
// reference bit for bit.
func TestCompressMatchesOracle(t *testing.T) {
	seed := int64(0)
	for _, gamma := range []float64{0.001, 0.1, 1} {
		for _, policy := range []CompressionPolicy{CompressSSEG, CompressCount, CompressRandom} {
			for _, strategy := range []Strategy{Eager, Lazy} {
				for dims := 1; dims <= 3; dims++ {
					seed++
					seed := seed
					t.Run(fmt.Sprintf("gamma=%g/%v/%v/d=%d", gamma, policy, strategy, dims), func(t *testing.T) {
						checkOracle(t, Config{
							Region:      geom.UnitCube(dims),
							Strategy:    strategy,
							MaxDepth:    5,
							Gamma:       gamma,
							Policy:      policy,
							MemoryLimit: 60 * DefaultNodeBytes,
						}, seed)
					})
				}
			}
		}
	}
}

func checkOracle(t *testing.T, cfg Config, seed int64) {
	tr := mustTree(t, cfg)
	ref := mustTree(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	// Few distinct costs make equal SSEG and count keys common, so the
	// slot tie-break decides many evictions.
	coarse := seed%2 == 0
	for step := 0; step < 600; step++ {
		passes := tr.Compressions()
		var pre map[string][3]uint64
		// pass runs the oracle on ref, first recording the summaries it
		// will have to leave alone.
		pass := func() {
			pre = summaries(ref)
			oracleCompress(ref)
		}
		switch r := rng.Intn(100); {
		case r < 90:
			p := make(geom.Point, cfg.Region.Dims())
			for i := range p {
				p[i] = rng.Float64()
			}
			v := rng.Float64() * 100
			if coarse {
				v = float64(rng.Intn(3))
			}
			if err := tr.Insert(p, v); err != nil {
				t.Fatal(err)
			}
			// ref inserts with compression held off, then compresses
			// by oracle if the limit was exceeded.
			limit := ref.cfg.MemoryLimit
			ref.cfg.MemoryLimit = math.MaxInt
			if err := ref.Insert(p, v); err != nil {
				t.Fatal(err)
			}
			ref.cfg.MemoryLimit = limit
			if ref.MemoryUsed() > limit {
				pass()
			}
		case r < 94:
			tr.Compress()
			pass()
		default:
			// Shrinks to as little as one node make large k; grows
			// give the tree room to rebuild.
			limit := DefaultNodeBytes * (1 + rng.Intn(120))
			if err := tr.Resize(limit); err != nil {
				t.Fatal(err)
			}
			if limit != ref.cfg.MemoryLimit {
				ref.cfg.MemoryLimit = limit
				if ref.MemoryUsed() > limit {
					pass()
				}
			}
		}
		if (pre != nil) != (tr.Compressions() != passes) {
			t.Fatalf("step %d: tree ran %d passes, oracle ran one: %v", step, tr.Compressions()-passes, pre != nil)
		}
		if !bytes.Equal(frame(t, tr), frame(t, ref)) {
			t.Fatalf("step %d: tree and oracle diverged after %d passes", step, tr.Compressions())
		}
		if pre != nil {
			for block, s := range summaries(tr) {
				if pre[block] != s {
					t.Fatalf("step %d: the pass changed the summary of surviving block %x", step, block)
				}
			}
		}
		for _, n := range []int{1, DefaultNodeBytes, 7 * DefaultNodeBytes, 1 << 20} {
			got := tr.ShrinkLoss(n)
			want := refShrinkLoss(&tr.a, tr.cfg.NodeBytes, tr.inserts, n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: ShrinkLoss(%d) = %v, sort-based reference %v", step, n, got, want)
			}
		}
	}
	if tr.Compressions() == 0 {
		t.Fatal("the mix never compressed")
	}
}
