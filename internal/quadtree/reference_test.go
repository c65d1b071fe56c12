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
// every live non-root leaf for the first one in (key, stamp) order and
// removes it, so a parent that became a leaf competes with every other
// leaf. SSEG is Eq. 9 recomputed from the raw summaries. CompressRandom
// keys are the pass's draw for each node's creation stamp.
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
	seed := uint64(t.compressions)*2654435761 + 1
	key := func(n int32) float64 {
		nd := a.nodes[n]
		switch t.cfg.Policy {
		case CompressCount:
			return float64(nd.count)
		case CompressRandom:
			return randomKey(nd.stamp, seed)
		default:
			p := a.nodes[nd.parent]
			d := p.sum/float64(p.count) - nd.sum/float64(nd.count)
			return float64(nd.count) * d * d
		}
	}
	live := func(n int) bool { return n > 0 && !a.isFree(int32(n)) && a.nodes[n].kidLen == 0 }
	for removed := 0; removed < k; removed++ {
		best := int32(-1)
		for n := range a.nodes {
			if !live(n) {
				continue
			}
			if best < 0 {
				best = int32(n)
				continue
			}
			kn, kb := key(int32(n)), key(best)
			if kn < kb || kn == kb && a.nodes[n].stamp < a.nodes[best].stamp { //lint:ignore floatguard exact key equality only routes the deterministic stamp-order tie-break
				best = int32(n)
			}
		}
		if best < 0 {
			break
		}
		a.release(best)
		t.nodeCount--
		t.removedNodes++
	}
	t.compressions++
	if t.cfg.Strategy == Lazy {
		t.thSSE = t.cfg.Alpha * a.sse(0)
	}
}

// refShrinkLoss is the sort-based ShrinkLoss that the slot-scan selection
// replaced: every live non-root leaf, sorted by (SSEG, stamp), the first
// ceil(bytes/NodeBytes) summed in that order.
func refShrinkLoss(a *arena, nodeBytes int, inserts int64, bytes int) float64 {
	if inserts <= 0 || bytes <= 0 {
		return 0
	}
	var leaves []victim
	for i := int32(1); i < int32(len(a.nodes)); i++ {
		if a.isLeaf(i) && !a.isFree(i) {
			leaves = append(leaves, victim{ref: i, key: a.sseg(i), stamp: a.nodes[i].stamp})
		}
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].key != leaves[j].key { //lint:ignore floatguard exact key equality only routes the deterministic stamp-order tie-break
			return leaves[i].key < leaves[j].key
		}
		return leaves[i].stamp < leaves[j].stamp
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

// blockKey names a node's block by its depth and lower corner.
func blockKey(depth int, lo geom.Point) string {
	key := []byte{byte(depth)}
	for _, v := range lo {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	return string(key)
}

// summaries maps every node's block to its S, SS and C bits.
func summaries(tr *Tree) map[string][3]uint64 {
	m := map[string][3]uint64{}
	tr.Walk(func(b Block) bool {
		m[blockKey(b.Depth, b.Region.Lo)] = [3]uint64{math.Float64bits(b.Sum), math.Float64bits(b.SumSquares), uint64(b.Count)}
		return true
	})
	return m
}

// absorbed maps each node's block, keyed by blockKey, to the observations
// the node has absorbed since it was created, as indices into a value list.
type absorbed map[string][]int

// track records observation i, just inserted at p, against every node on
// p's descent path: the nodes the Insert added its value to. A pass only
// trims the path from below, so this holds after one too.
func (ab absorbed) track(tr *Tree, p geom.Point, i int) {
	q, region := tr.cfg.Region.Clamp(p), tr.cfg.Region
	for n, depth := int32(0), 0; n >= 0; depth++ {
		k := blockKey(depth, region.Lo)
		ab[k] = append(ab[k], i)
		idx := region.ChildIndex(q)
		n = tr.a.child(n, idx)
		region = region.Child(idx)
	}
}

// check forgets the blocks tr no longer has, then compares every node's
// S/C/SS with the brute-force aggregates of what it absorbed.
func (ab absorbed) check(t *testing.T, tr *Tree, vals []float64) {
	t.Helper()
	have := summaries(tr)
	for k := range ab {
		if _, ok := have[k]; !ok {
			delete(ab, k)
		}
	}
	for k, bits := range have {
		var s, ss float64
		for _, i := range ab[k] {
			s += vals[i]
			ss += vals[i] * vals[i]
		}
		gs, gss := math.Float64frombits(bits[0]), math.Float64frombits(bits[1])
		if int(bits[2]) != len(ab[k]) || !approxEq(gs, s, 1e-9) || !approxEq(gss, ss, 1e-9) {
			t.Fatalf("block %x holds S=%g SS=%g C=%d, its %d observations aggregate to S=%g SS=%g", k, gs, gss, bits[2], len(ab[k]), s, ss)
		}
	}
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
// twin whose every compression pass is oracleCompress. A second stream
// interleaves Merges of small side trees, Clones and WriteTo/Read round
// trips, which each continue on the copy; each must carry the tree's
// victim set or invalidate it. After each step the two must serialize to
// the same bytes, a pass must leave every surviving node's S/C/SS as it
// found them, every node's S/C/SS must match the brute-force aggregates of
// the observations it absorbed, and ShrinkLoss must equal the sort-based
// reference bit for bit. The shape=1MiB cases take a 1 MiB tree's shape
// in small: at least 36 victims a pass, and clustered inserts that touch
// more than 64 paths between some passes, which must then be served by
// the carried victim set; their Resizes never shrink the budget, so k
// stays that large.
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
						}, seed, oracleMix{draw: uniformDraw, steps: 600, extra: 6, inserts: 90, compresses: 4, floor: 1})
					})
				}
			}
		}
	}
	for _, policy := range []CompressionPolicy{CompressSSEG, CompressCount} {
		seed++
		seed := seed
		t.Run(fmt.Sprintf("shape=1MiB/%v/MLQ-E/d=2", policy), func(t *testing.T) {
			checkOracle(t, Config{
				Region:      geom.UnitCube(2),
				Strategy:    Eager,
				MaxDepth:    6,
				Gamma:       0.06,
				Policy:      policy,
				MemoryLimit: 600 * DefaultNodeBytes,
			}, seed, oracleMix{draw: clusteredDraw(1000, 0.06), steps: 2000, inserts: 98, compresses: 1, floor: 60, refreshes: 4})
		})
	}
}

// uniformDraw draws p uniformly from the unit cube.
func uniformDraw(r *rand.Rand, p geom.Point) {
	for i := range p {
		p[i] = r.Float64()
	}
}

// clusteredDraw returns a draw of points normally scattered, by sd, around
// a centre in the unit cube that jumps to a fresh uniform draw every run
// points: a drifting hot region.
func clusteredDraw(run int, sd float64) func(r *rand.Rand, p geom.Point) {
	var centre geom.Point
	n := 0
	return func(r *rand.Rand, p geom.Point) {
		if n%run == 0 {
			centre = make(geom.Point, len(p))
			uniformDraw(r, centre)
		}
		n++
		for i := range p {
			p[i] = centre[i] + r.NormFloat64()*sd
		}
	}
}

// roundTrip returns the tree Read decodes from tr's WriteTo frame.
func roundTrip(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	out, err := Read(bytes.NewReader(frame(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleMix shapes checkOracle's schedule.
type oracleMix struct {
	draw  func(r *rand.Rand, p geom.Point) // an observation's point
	steps int
	// extra is the percentage of steps that Merge, Clone or round-trip,
	// a third each; of the others, inserts and compresses are the
	// percentages that insert and that compress, and the rest Resize.
	extra, inserts, compresses int
	// floor sets the smallest Resize limit, floor/60 of the budget; the
	// largest is twice the budget.
	floor int
	// refreshes is how many passes that followed inserts on more than 64
	// distinct paths must at least have been served by the carried
	// victim set rather than a rescan.
	refreshes int
}

// checkOracle runs the mix on cfg.
func checkOracle(t *testing.T, cfg Config, seed int64, mix oracleMix) {
	tr := mustTree(t, cfg)
	ref := mustTree(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	extra := rand.New(rand.NewSource(-seed))
	// Few distinct costs make equal SSEG and count keys common, so the
	// stamp tie-break decides many evictions.
	coarse := seed%2 == 0
	var vals []float64
	ab := absorbed{}
	// observe draws one observation from r, gives it the next index and
	// returns it with that index.
	observe := func(r *rand.Rand) (geom.Point, float64, int) {
		p := make(geom.Point, cfg.Region.Dims())
		mix.draw(r, p)
		v := r.Float64() * 100
		if coarse {
			v = float64(r.Intn(3))
		}
		vals = append(vals, v)
		return p, v, len(vals) - 1
	}
	// held runs op on ref with compression held off, then compresses by
	// oracle, through pass, if the limit was exceeded.
	held := func(op func() error, pass func()) {
		limit := ref.cfg.MemoryLimit
		ref.cfg.MemoryLimit = math.MaxInt
		if err := op(); err != nil {
			t.Fatal(err)
		}
		ref.cfg.MemoryLimit = limit
		if ref.MemoryUsed() > limit {
			pass()
		}
	}
	// paths holds the deepest slot of every insert since the last pass;
	// a refresh counts when inserts on more than pathsBefore paths
	// preceded it.
	paths := map[int32]bool{}
	refreshed := 0
	for step := 0; step < mix.steps; step++ {
		passes, rescans, same := tr.Compressions(), tr.vs.rescans, tr
		var pre map[string][3]uint64
		// pass runs the oracle on ref, first recording the summaries it
		// will have to leave alone.
		pass := func() {
			pre = summaries(ref)
			oracleCompress(ref)
		}
		if x := extra.Intn(100); x < mix.extra {
			switch x * 3 / mix.extra {
			case 0:
				side := mustTree(t, Config{Region: cfg.Region, MaxDepth: cfg.MaxDepth, MemoryLimit: 1 << 20})
				sideAb := absorbed{}
				for n := 1 + extra.Intn(20); n > 0; n-- {
					p, v, i := observe(extra)
					if err := side.Insert(p, v); err != nil {
						t.Fatal(err)
					}
					sideAb.track(side, p, i)
				}
				if err := tr.Merge(side); err != nil {
					t.Fatal(err)
				}
				held(func() error { return ref.Merge(side) }, pass)
				for k, is := range sideAb {
					ab[k] = append(ab[k], is...)
				}
			case 1:
				tr, ref = tr.Clone(), ref.Clone()
			default:
				tr, ref = roundTrip(t, tr), roundTrip(t, ref)
			}
		} else {
			switch r := rng.Intn(100); {
			case r < mix.inserts:
				p, v, i := observe(rng)
				if err := tr.Insert(p, v); err != nil {
					t.Fatal(err)
				}
				held(func() error { return ref.Insert(p, v) }, pass)
				ab.track(tr, p, i)
				if tr.Compressions() == passes {
					leaf, _ := descend(&tr.a, tr.g, p, 1)
					paths[leaf] = true
				}
			case r < mix.inserts+mix.compresses:
				tr.Compress()
				pass()
			default:
				// Shrinks to floor/60 of the budget (one node in the
				// 60-node cases) make large k; grows give the tree room
				// to rebuild.
				limit := cfg.MemoryLimit / 60 * (mix.floor + rng.Intn(121-mix.floor))
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
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ab.check(t, tr, vals)
		if (pre != nil) != (tr.Compressions() != passes) {
			t.Fatalf("step %d: tree ran %d passes, oracle ran one: %v", step, tr.Compressions()-passes, pre != nil)
		}
		if tr.Compressions() != passes || tr != same {
			if tr == same && tr.Compressions() == passes+1 && tr.vs.rescans == rescans && len(paths) > pathsBefore {
				refreshed++
			}
			clear(paths)
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
	if refreshed < mix.refreshes {
		t.Fatalf("%d passes after inserts on more than 64 paths refreshed the carried victim set, want at least %d", refreshed, mix.refreshes)
	}
}
