package quadtree

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlq/internal/geom"
)

// refChild is arena.child without the full-span shortcut: a plain binary
// search of the sorted span.
func refChild(a *arena, n int32, idx uint32) int32 {
	span := a.span(n)
	i, found := slices.BinarySearchFunc(span, idx, func(k kidRef, idx uint32) int { return cmp.Compare(k.idx, idx) })
	if !found {
		return -1
	}
	return span[i].ref
}

// refDescend is descend by refChild and the midpoint arithmetic of
// Rect.ChildIndex and Child, with no grid.
func refDescend(a *arena, region geom.Rect, p geom.Point, beta int) (best int32, bestDepth int) {
	p = region.Clamp(p)
	for cn, d := int32(0), 0; cn >= 0; d++ {
		if a.nodes[cn].count >= int64(beta) {
			best, bestDepth = cn, d
		}
		idx := region.ChildIndex(p)
		cn = refChild(a, cn, idx)
		region = region.Child(idx)
	}
	return best, bestDepth
}

// spanCounts tallies the spans a shortcut check has covered.
type spanCounts struct{ full, partial int }

// checkShortcut compares arena.child on every live slot and every quadrant
// q < 2^dims, and descend on every probe point at β 1 and 3, with refChild
// and refDescend.
func checkShortcut(t *testing.T, stage string, a *arena, g *grid, region geom.Rect, probes []geom.Point, seen *spanCounts) {
	t.Helper()
	if want := int32(1) << region.Dims(); a.full != want {
		t.Fatalf("%s: arena.full %d, want 2^%d = %d", stage, a.full, region.Dims(), want)
	}
	for n := range a.nodes {
		slot := int32(n)
		if a.isFree(slot) || a.isLeaf(slot) {
			continue
		}
		if a.nodes[slot].kidLen == a.full {
			seen.full++
		} else {
			seen.partial++
		}
		for q := uint32(0); q < uint32(a.full); q++ {
			if got, want := a.child(slot, q), refChild(a, slot, q); got != want {
				t.Fatalf("%s: child(%d, %d) = %d, binary search %d (span of %d of %d)", stage, slot, q, got, want, a.nodes[slot].kidLen, a.full)
			}
		}
	}
	for _, p := range probes {
		for _, beta := range []int{1, 3} {
			best, depth := descend(a, g, p, beta)
			wantBest, wantDepth := refDescend(a, region, p, beta)
			if best != wantBest || depth != wantDepth {
				t.Fatalf("%s: descend(%v, β=%d) = slot %d at depth %d, reference slot %d at depth %d", stage, p, beta, best, depth, wantBest, wantDepth)
			}
		}
	}
}

// TestFullSpanShortcutMatchesBinarySearch checks the lookup that indexes a
// full span by quadrant, in arena.child and inlined in descend, against a
// plain binary search, on 1-, 2-, 3-, 4- and 9-dimensional trees after
// each way a tree's spans are built or moved: Insert, Compress, a Resize
// shrink that packs the arena, a Resize grow, Merge, Clone, Snapshot and a
// WriteTo/Read round trip. Every stage validates the tree first. Inserts
// are clustered as well as uniform, so the trees hold full spans below the
// root as well as partial ones; the 9-dimensional tree also gets a point
// in every root quadrant at the start and before the round trip, so its
// root span holds all 512.
func TestFullSpanShortcutMatchesBinarySearch(t *testing.T) {
	for _, tc := range []struct {
		dims, maxDepth, nodes int
		strategy              Strategy
	}{
		{1, 12, 120, Eager},
		{2, 8, 400, Lazy},
		{3, 6, 900, Eager},
		{4, 5, 1500, Lazy},
		{9, 2, 3000, Eager},
	} {
		t.Run(fmt.Sprintf("d=%d", tc.dims), func(t *testing.T) {
			region := geom.Rect{Lo: make(geom.Point, tc.dims), Hi: make(geom.Point, tc.dims)}
			for i := range region.Lo {
				region.Lo[i], region.Hi[i] = -3.7+float64(i), 1e3
			}
			cfg := Config{Region: region, Strategy: tc.strategy, MaxDepth: tc.maxDepth, MemoryLimit: tc.nodes * DefaultNodeBytes}
			rng := rand.New(rand.NewSource(int64(tc.dims)))
			draw := func() geom.Point {
				p := make(geom.Point, tc.dims)
				cluster := rng.Intn(2) == 0
				for i := range p {
					w := region.Hi[i] - region.Lo[i]
					if cluster {
						p[i] = region.Lo[i] + w*(0.3+0.01*rng.Float64())
					} else {
						p[i] = region.Lo[i] + w*(rng.Float64()*1.1-0.05)
					}
				}
				return p
			}
			feed := func(tr *Tree, n int) {
				for i := 0; i < n; i++ {
					if err := tr.Insert(draw(), rng.Float64()*100); err != nil {
						t.Fatal(err)
					}
				}
			}
			probes := make([]geom.Point, 0, 300)
			for len(probes) < cap(probes)-2 {
				probes = append(probes, draw())
			}
			nan, inf := make(geom.Point, tc.dims), make(geom.Point, tc.dims)
			for i := range nan {
				nan[i], inf[i] = math.NaN(), math.Inf(1)
			}
			probes = append(probes, nan, inf)

			var seen spanCounts
			check := func(stage string, tr *Tree) {
				t.Helper()
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				checkShortcut(t, stage, &tr.a, tr.g, region, probes, &seen)
			}

			// fillRoot gives the 9-dimensional tree a point in every root
			// quadrant: a full 512-wide span.
			fillRoot := func(tr *Tree) {
				if tc.dims != 9 {
					return
				}
				for q := 0; q < 1<<tc.dims; q++ {
					p := make(geom.Point, tc.dims)
					for i := range p {
						p[i] = region.Lo[i] + (region.Hi[i]-region.Lo[i])*(0.25+0.5*float64(q>>i&1))
					}
					if err := tr.Insert(p, float64(q)); err != nil {
						t.Fatal(err)
					}
				}
				if tr.a.nodes[0].kidLen != tr.a.full {
					t.Fatalf("root span holds %d of %d quadrants", tr.a.nodes[0].kidLen, tr.a.full)
				}
			}

			tr := mustTree(t, cfg)
			fillRoot(tr)
			feed(tr, 4*tc.nodes)
			if tr.Compressions() == 0 {
				t.Fatal("the stream never compressed; lower MemoryLimit")
			}
			check("insert", tr)
			tr.Compress()
			check("compress", tr)

			if err := tr.Resize(cfg.MemoryLimit / 4); err != nil {
				t.Fatal(err)
			}
			if tr.a.nfree != 0 {
				t.Fatalf("a shrink to a quarter left %d free slots: it did not pack", tr.a.nfree)
			}
			check("resize-shrink", tr)
			if err := tr.Resize(cfg.MemoryLimit); err != nil {
				t.Fatal(err)
			}
			feed(tr, tc.nodes)
			check("resize-grow", tr)

			other := mustTree(t, cfg)
			feed(other, 2*tc.nodes)
			if err := tr.Merge(other); err != nil {
				t.Fatal(err)
			}
			check("merge", tr)

			clone := tr.Clone()
			feed(clone, tc.nodes/2)
			check("clone", clone)
			snap := tr.Snapshot()
			checkShortcut(t, "snapshot", &snap.a, snap.g, region, probes, &seen)

			// Room for fillRoot's inserts, so no compression trims the
			// root span before the round trip.
			if err := tr.Resize(2 * cfg.MemoryLimit); err != nil {
				t.Fatal(err)
			}
			fillRoot(tr)
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			check("read", back)
			feed(back, tc.nodes)
			check("read-insert", back)

			t.Logf("checked %d full and %d partial spans", seen.full, seen.partial)
			if seen.full == 0 || seen.partial == 0 {
				t.Fatalf("checked %d full and %d partial spans: both kinds must occur", seen.full, seen.partial)
			}
		})
	}
}
