package quadtree

import (
	"math/rand"
	"reflect"
	"testing"

	"mlq/internal/geom"
)

// allocPoints returns n points in [−50, 1050)^d: mostly inside the
// [0, 1000)^d test region, some outside it so the clamp does real work.
func allocPoints(n, d int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()*1100 - 50
		}
		pts[i] = p
	}
	return pts
}

func cubeRegion(d int, hi float64) geom.Rect {
	r := geom.UnitCube(d)
	for i := range r.Hi {
		r.Hi[i] = hi
	}
	return r
}

// TestZeroAllocs pins the hot paths' allocation contract: prediction on a
// Tree or a Snapshot, and an insertion that neither grows the arena nor
// compresses, allocate nothing. The bisection grid needs no buffers, and
// a descent below it narrows the block bounds in stack buffers.
func TestZeroAllocs(t *testing.T) {
	pts := allocPoints(4096, 4, 1)
	tr := mustTree(t, Config{Region: cubeRegion(4, 1000), MemoryLimit: 92 * DefaultNodeBytes})
	for i := 0; i < 20000; i++ {
		if err := tr.Insert(pts[i%len(pts)], float64(i%10000)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	pin := func(name string, f func(p geom.Point)) {
		t.Helper()
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			f(pts[i%len(pts)])
			i++
		}); n != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, n)
		}
	}
	pin("Tree.Predict", func(p geom.Point) { tr.Predict(p) })
	pin("Tree.PredictEstimate", func(p geom.Point) { tr.PredictEstimate(p, 2) })
	pin("Tree.PredictDepth", func(p geom.Point) { tr.PredictDepth(p, 2) })
	pin("Snapshot.Predict", func(p geom.Point) { snap.Predict(p) })
	pin("Snapshot.PredictEstimate", func(p geom.Point) { snap.PredictEstimate(p, 2) })

	// Re-inserting points the eager tree has already seen walks existing
	// paths only: no new node, no compression, no span relocation.
	grown := mustTree(t, Config{Region: cubeRegion(4, 1000), MemoryLimit: 1 << 24})
	for _, p := range pts[:256] {
		if err := grown.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	nodes := grown.NodeCount()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		grown.Insert(pts[i%256], float64(i))
		i++
	}); n != 0 {
		t.Errorf("non-compressing Tree.Insert allocates %v/op, want 0", n)
	}
	if grown.NodeCount() != nodes || grown.Compressions() != 0 {
		t.Fatalf("pin precondition broken: nodes %d -> %d, %d compressions", nodes, grown.NodeCount(), grown.Compressions())
	}
}

// TestCompressAllocs pins the compression pass's allocations at a 16 KiB
// budget, where each pass evicts one node: a pass itself allocates
// nothing. The victim set it carries to the next pass was allocated by the
// first one, and evicted slots go on the free list instead of into a
// compaction's remap table. What remains is the kids slice growing past
// the spare room compactKids leaves: 13 regrowths in these 500 passes.
func TestCompressAllocs(t *testing.T) {
	pts := allocPoints(4096, 4, 3)
	tr := mustTree(t, Config{Region: cubeRegion(4, 1000), Strategy: Lazy, MemoryLimit: 16 << 10})
	i := 0
	// untilPass inserts until one compression pass has run.
	untilPass := func() {
		for c := tr.Compressions(); tr.Compressions() == c; i++ {
			if err := tr.Insert(pts[i%len(pts)], float64(i%10000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for tr.Compressions() < 200 {
		untilPass()
	}
	// One run of 500 passes, so the count is exact, not rounded down.
	const passes, regrowths = 500, 13
	if n := testing.AllocsPerRun(1, func() {
		for j := 0; j < passes; j++ {
			untilPass()
		}
	}); n > regrowths {
		t.Errorf("%d compressing Inserts allocate %v times, want at most the %d kids-slice regrowths", passes, n, regrowths)
	}
}

// refDescentInsert is Insert's descent by the midpoint arithmetic alone: a
// clamped copy of the point and a fresh Rect per level from Rect.Child. It
// keeps Insert's kids compaction but skips compression, so trees fed by it
// must stay under their limit.
func refDescentInsert(t *Tree, p geom.Point, value float64) {
	p = t.cfg.Region.Clamp(p)
	th := t.Threshold()
	cn := int32(0)
	region := t.cfg.Region
	t.a.add(cn, value)
	for depth := 0; depth < t.cfg.MaxDepth; depth++ {
		if t.a.isLeaf(cn) && t.a.sse(cn) < th {
			break
		}
		idx := region.ChildIndex(p)
		child := t.a.child(cn, idx)
		if child < 0 {
			child = t.a.addChild(cn, idx)
			t.nodeCount++
		}
		region = region.Child(idx)
		cn = child
		t.a.add(cn, value)
	}
	if t.a.kidGarbage > len(t.a.kids)/2 && t.a.kidGarbage > 64 {
		t.a.compactKids()
	}
}

// refDescentPredict is Fig. 3's search by Rect.Clamp and Rect.Child.
func refDescentPredict(a *arena, region geom.Rect, p geom.Point, beta int) (float64, int, bool) {
	if a.nodes[0].count == 0 {
		return 0, 0, false
	}
	p = region.Clamp(p)
	best, bestDepth := int32(0), 0
	cn := int32(0)
	for d := 0; ; d++ {
		if a.nodes[cn].count >= int64(beta) {
			best, bestDepth = cn, d
		}
		idx := region.ChildIndex(p)
		child := a.child(cn, idx)
		if child < 0 {
			break
		}
		region = region.Child(idx)
		cn = child
	}
	v, ok := finiteAvg(a, best)
	return v, bestDepth, ok
}

// TestDescentPastStackBuffers runs 9-D trees, one dimension past the
// 8-slot stack buffers of a descent below the bisection grid, so Insert
// and Predict take their heap fallback there; the 4-level tree never
// leaves the grid. Their arenas and answers must match the Clamp/Child
// reference descent exactly. The 64-level tree is fed boundary points:
// its deepest blocks are a few ulps wide, where the clamp decides the
// path.
func TestDescentPastStackBuffers(t *testing.T) {
	const d = 9
	edge := func(v float64) geom.Point {
		p := make(geom.Point, d)
		for i := range p {
			p[i] = v
		}
		return p
	}
	mixed := edge(1000)
	for i := 0; i < d; i += 2 {
		mixed[i] = -50
	}
	cases := []struct {
		name     string
		maxDepth int
		pts      []geom.Point
	}{
		{"uniform", 4, allocPoints(2000, d, 9)},
		{"boundary", 64, []geom.Point{edge(1050), edge(-50), edge(1000), edge(0), mixed, edge(999.9999999999999)}},
	}
	for _, c := range cases {
		cfg := Config{Region: cubeRegion(d, 1000), MaxDepth: c.maxDepth, MemoryLimit: 1 << 24}
		got, want := mustTree(t, cfg), mustTree(t, cfg)
		for i, p := range c.pts {
			if err := got.Insert(p, float64(i%97)); err != nil {
				t.Fatal(err)
			}
			refDescentInsert(want, p, float64(i%97))
		}
		if got.Compressions() != 0 {
			t.Fatalf("%s: the reference insert does not compress; raise MemoryLimit", c.name)
		}
		if !reflect.DeepEqual(got.a.nodes, want.a.nodes) || !reflect.DeepEqual(got.a.kids, want.a.kids) {
			t.Fatalf("%s: 9-D Insert built a different arena than the Clamp/Child reference", c.name)
		}
		snap := got.Snapshot()
		for _, p := range append(allocPoints(500, d, 10), c.pts...) {
			for _, beta := range []int{1, 3} {
				wv, wd, wok := refDescentPredict(&want.a, cfg.Region, p, beta)
				if v, depth, ok := got.PredictDepth(p, beta); v != wv || depth != wd || ok != wok {
					t.Fatalf("%s: Tree.PredictDepth(%v, %d) = %g@%d %v, reference %g@%d %v", c.name, p, beta, v, depth, ok, wv, wd, wok)
				}
				if v, ok := snap.PredictBeta(p, beta); v != wv || ok != wok {
					t.Fatalf("%s: Snapshot.PredictBeta(%v, %d) = %g %v, reference %g %v", c.name, p, beta, v, ok, wv, wok)
				}
			}
		}
	}
}
