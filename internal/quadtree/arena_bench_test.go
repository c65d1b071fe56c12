package quadtree

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"mlq/internal/geom"
)

// linearChild is the lookup the sorted spans replaced: a left-to-right scan
// of the parent's child entries. It exists only as the benchmark baseline.
func linearChild(a *arena, n int32, idx uint32) int32 {
	nd := &a.nodes[n]
	for _, k := range a.kids[nd.kidOff : nd.kidOff+nd.kidLen] {
		if k.idx == idx {
			return k.ref
		}
	}
	return -1
}

// spanArena builds a one-level arena of a dims-dimensional tree whose root
// has width children with quadrant indices 0..width-1, inserted in random
// order so the sorted-insert path of addChild is exercised.
func spanArena(b *testing.B, width, dims int) *arena {
	b.Helper()
	a := newArena(dims)
	perm := rand.New(rand.NewSource(int64(width))).Perm(width)
	for _, idx := range perm {
		a.addChild(0, uint32(idx))
	}
	if got := int(a.nodes[0].kidLen); got != width {
		b.Fatalf("built span of %d entries, want %d", got, width)
	}
	return &a
}

// BenchmarkChildLookup compares the three lookups of a span of width
// children, at the widths a d-dimensional tree's full spans have (2^d: d=2..4
// for the paper's workloads, 6 for the stress configs): indexing the full
// span of a d-dimensional tree, and the binary search and the linear scan
// it replaced over the same entries in a (d+1)-dimensional tree, where
// they fill half the quadrants. The sorted order is maintained by addChild
// either way, so the comparison isolates pure lookup cost on the Predict
// descent.
func BenchmarkChildLookup(b *testing.B) {
	for _, width := range []int{4, 16, 64} {
		dims := bits.Len(uint(width)) - 1
		full, half := spanArena(b, width, dims), spanArena(b, width, dims+1)
		// Probe indices cycle through hits at every position plus, where
		// the span is partial, one miss.
		probes := make([]uint32, width+1)
		for i := range probes {
			probes[i] = uint32(i)
		}
		b.Run(fmt.Sprintf("indexed-%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				full.child(0, probes[i%width])
			}
		})
		b.Run(fmt.Sprintf("binary-%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				half.child(0, probes[i%len(probes)])
			}
		})
		b.Run(fmt.Sprintf("linear-%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linearChild(half, 0, probes[i%len(probes)])
			}
		})
	}
}

// TestLinearChildAgrees pins the baseline used by BenchmarkChildLookup to
// the real lookup, so the benchmark always compares equivalent functions.
func TestLinearChildAgrees(t *testing.T) {
	a := newArena(5) // 16 of 32 quadrants: a binary-searched span
	perm := rand.New(rand.NewSource(3)).Perm(16)
	for _, idx := range perm {
		a.addChild(0, uint32(idx))
	}
	for idx := uint32(0); idx < 18; idx++ {
		if got, want := linearChild(&a, 0, idx), a.child(0, idx); got != want {
			t.Errorf("linearChild(%d) = %d, child = %d", idx, got, want)
		}
	}
}

// arenaBytes is the memory the descent reads from: the node slots plus the
// shared child-entry slice.
func arenaBytes(a *arena) int {
	return len(a.nodes)*int(unsafe.Sizeof(node{})) + len(a.kids)*int(unsafe.Sizeof(kidRef{}))
}

// xorshift is a tiny inline generator, so the arena sweep can draw every
// query point fresh instead of cycling a pool that would itself stay
// cache-resident.
type xorshift uint64

func (x *xorshift) unit() float64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return float64(*x>>11) / (1 << 53)
}

// arenaSink keeps the compiler from discarding the benchmarked prediction.
var arenaSink float64

// BenchmarkPredictArena sweeps Predict across arenas of 32 KiB, 1 MiB,
// 8 MiB and 64 MiB — sizes chosen to sit in L1, L2, L3 and RAM on common
// server parts — to locate the cache-residency cliff of the descent. Each
// tree is a 4-D eager MLQ grown by uniform inserts until its arena reaches
// the size, with a budget large enough that it never compresses; queries
// are uniform and drawn fresh, so every level's node is a random access.
// ns/op per level of the reported mean depth, compared across sizes, is the
// memory hierarchy's share of a prediction.
func BenchmarkPredictArena(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"32KiB", 32 << 10}, {"1MiB", 1 << 20}, {"8MiB", 8 << 20}, {"64MiB", 64 << 20}} {
		tr, err := New(Config{Region: geom.UnitCube(4), MaxDepth: 8, MemoryLimit: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		rng := xorshift(uint64(size.bytes))
		p := make(geom.Point, 4)
		for arenaBytes(&tr.a) < size.bytes {
			for i := range p {
				p[i] = rng.unit()
			}
			if err := tr.Insert(p, p[0]+p[1]); err != nil {
				b.Fatal(err)
			}
		}
		// The mean answering depth normalizes ns/op: bigger trees are also
		// deeper, so part of their cost is more levels, not slower ones.
		depths, probe := 0, xorshift(3)
		for i := 0; i < 4096; i++ {
			for j := range p {
				p[j] = probe.unit()
			}
			_, d, _ := tr.PredictDepth(p, 1)
			depths += d
		}
		b.Run(size.name, func(b *testing.B) {
			q := make(geom.Point, 4)
			rng := xorshift(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range q {
					q[j] = rng.unit()
				}
				arenaSink, _ = tr.Predict(q)
			}
			b.ReportMetric(float64(tr.NodeCount()), "nodes")
			b.ReportMetric(float64(depths)/4096, "depth")
		})
	}
}
