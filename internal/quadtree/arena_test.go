package quadtree

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"mlq/internal/geom"
)

// TestNodeSize pins a node slot at 40 bytes: the creation stamp lives in
// what was padding.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 40 {
		t.Fatalf("node is %d bytes, want 40", n)
	}
}

// TestStampWrap starts one tree's stamp clock 16 short of the uint32 limit
// and drives the same inserts, passes and Resizes through it and through a
// twin whose clock starts at zero. Halfway, when the tree carries a victim
// set, its clock jumps there again. The wrapped tree must renumber its
// stamps instead of wrapping, and serialize to the twin's bytes after
// every step.
func TestStampWrap(t *testing.T) {
	// More leaves than victimBuf, so the carried set has a real bound.
	cfg := Config{Region: geom.UnitCube(2), Strategy: Lazy, MaxDepth: 6, MemoryLimit: 300 * DefaultNodeBytes}
	wrapped, twin := mustTree(t, cfg), mustTree(t, cfg)
	rng := rand.New(rand.NewSource(5))
	restamps := 0
	for step := 0; step < 6000; step++ {
		if step%3000 == 0 {
			wrapped.a.clock = math.MaxUint32 - 16
		}
		clock := wrapped.a.clock
		switch r := rng.Intn(40); {
		case r == 0:
			wrapped.Compress()
			twin.Compress()
		case r == 1:
			limit := DefaultNodeBytes * (200 + rng.Intn(200))
			if err := wrapped.Resize(limit); err != nil {
				t.Fatal(err)
			}
			if err := twin.Resize(limit); err != nil {
				t.Fatal(err)
			}
		default:
			// Mostly equal costs make most keys zero, so the stamp
			// tie-break decides most evictions.
			p, v := geom.Point{rng.Float64(), rng.Float64()}, float64(rng.Intn(20)/19)
			if err := wrapped.Insert(p, v); err != nil {
				t.Fatal(err)
			}
			if err := twin.Insert(p, v); err != nil {
				t.Fatal(err)
			}
		}
		if wrapped.a.clock < clock {
			restamps++
		}
		if err := wrapped.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !bytes.Equal(frame(t, wrapped), frame(t, twin)) {
			t.Fatalf("step %d: the wrapped tree diverged from its twin", step)
		}
	}
	if restamps != 2 {
		t.Fatalf("the clock was renumbered %d times, want twice", restamps)
	}
}

// TestValidateCatchesSlotAccounting corrupts the free list and the slots
// of a compressed tree in the ways Validate must see.
func TestValidateCatchesSlotAccounting(t *testing.T) {
	grown := func() *Tree {
		tr := mustTree(t, Config{Region: geom.UnitCube(2), MaxDepth: 4, MemoryLimit: 30 * DefaultNodeBytes})
		rng := rand.New(rand.NewSource(2))
		for tr.a.nfree == 0 || tr.Compressions() < 3 {
			if err := tr.Insert(geom.Point{rng.Float64(), rng.Float64()}, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// leaf returns a live non-root leaf of tr.
	leaf := func(tr *Tree) int32 {
		for n := int32(1); n < int32(len(tr.a.nodes)); n++ {
			if tr.a.isLeaf(n) && !tr.a.isFree(n) {
				return n
			}
		}
		t.Fatal("no leaf")
		return 0
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(tr *Tree)
	}{
		{"free slot reachable", "broken parent link", func(tr *Tree) {
			n := leaf(tr)
			tr.a.nodes[n].parent, tr.a.nodes[n].kidOff = freeParent, tr.a.free
			tr.a.free = n
			tr.a.nfree++
			tr.nodeCount--
		}},
		{"slot neither reachable nor free", "nodes are tracked", func(tr *Tree) {
			n := leaf(tr)
			tr.a.release(n)
			tr.a.free = tr.a.nodes[n].kidOff // off the list again, yet unreachable
			tr.a.nfree--
			tr.nodeCount--
		}},
		{"free list cycle", "twice", func(tr *Tree) {
			tr.a.nodes[tr.a.free].kidOff = tr.a.free
		}},
		{"unmarked slot on the free list", "not marked free", func(tr *Tree) {
			tr.a.nodes[tr.a.free].parent = 0
		}},
		{"leaf count drift", "leaf count", func(tr *Tree) {
			tr.a.leaves++
		}},
	} {
		tr := grown()
		c.corrupt(tr)
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestRestampResetsVictimSet renumbers the stamps of a tree that carries a
// victim set whose bound is one of the old stamps, then evicts leaf by
// leaf next to a twin that was never renumbered. All costs are equal, so
// every key is zero and the stamps alone order the victims.
func TestRestampResetsVictimSet(t *testing.T) {
	cfg := Config{Region: geom.UnitCube(2), MaxDepth: 4, MemoryLimit: 1 << 20}
	tr, twin := mustTree(t, cfg), mustTree(t, cfg)
	tr.a.clock = math.MaxUint32 - 1000
	for _, x := range []*Tree{tr, twin} {
		x.cfg.Gamma = 1e-9 // one victim a pass
	}
	rng := rand.New(rand.NewSource(8))
	both := func(f func(x *Tree)) {
		f(tr)
		f(twin)
		if !bytes.Equal(frame(t, tr), frame(t, twin)) {
			t.Fatal("the renumbered tree diverged from its twin")
		}
	}
	insert := func(x *Tree, p geom.Point) {
		if err := x.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		both(func(x *Tree) { insert(x, p) })
	}
	both(func(x *Tree) { x.Compress() })
	// The carried set's stamps and bound are near the clock's limit; the
	// next node created renumbers them.
	tr.a.clock = math.MaxUint32 - 1
	clock := tr.a.clock
	for i := 0; tr.a.clock >= clock; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		both(func(x *Tree) { insert(x, p) })
	}
	for i := 0; i < 200; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		both(func(x *Tree) {
			if i%4 == 0 {
				insert(x, p)
			}
			x.Compress()
		})
	}
}
