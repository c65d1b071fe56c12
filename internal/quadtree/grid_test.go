package quadtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mlq/internal/geom"
)

// nextUp returns v moved up by n ulps.
func nextUp(v float64, n int) float64 {
	for ; n > 0; n-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	return v
}

// gridRegion returns a d-dimensional region of the named shape. "mixed"
// cycles its dimensions through a dyadic cube side, a non-dyadic extent, a
// few-ulp-wide one and a subnormal one; "inverted" and "overflow" (an
// infinite span) are regions New rejects.
func gridRegion(shape string, d int) geom.Rect {
	r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	for i := range r.Lo {
		var lo, hi float64
		switch shape {
		case "mixed":
			switch i % 4 {
			case 0:
				lo, hi = 0, 1000
			case 1:
				lo, hi = -3.7, 1e6
			case 2:
				lo = 1.0000001
				hi = nextUp(lo, 7)
			default:
				lo, hi = 0, 5*math.SmallestNonzeroFloat64
			}
		case "inverted":
			lo, hi = 5, 1
		case "overflow":
			lo, hi = -1e308, 1e308
		}
		r.Lo[i], r.Hi[i] = lo, hi
	}
	return r
}

// specialCoords returns, for one dimension of region, the coordinates the
// descent decides at: both bounds, the value just below Hi, the bisection
// midpoints down two random paths past the grid's depth and their
// neighbours, values outside the region, ±Inf and NaN.
func specialCoords(region geom.Rect, i int, rng *rand.Rand) []float64 {
	lo, hi := region.Lo[i], region.Hi[i]
	vs := []float64{lo, hi, math.Nextafter(hi, math.Inf(-1)), math.Nextafter(lo, math.Inf(1)),
		lo - 1, hi + 1, math.Inf(1), math.Inf(-1), math.NaN()}
	for path := 0; path < 2; path++ {
		l, h := lo, hi
		for level := 0; level < 12; level++ {
			mid := l + (h-l)/2
			vs = append(vs, mid, math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1)))
			if rng.Intn(2) == 0 {
				l = mid
			} else {
				h = mid
			}
		}
	}
	return vs
}

// TestGridDescentMatchesArithmetic builds trees through Insert and through
// refDescentInsert, the Clamp/Child descent without the grid, and compares
// their arenas and every prediction on both sides of the grid's depth cap:
// regions with non-dyadic, few-ulp-wide and subnormal extents, 1-, 4-, 9-
// and 20-dimensional trees (grids of 8, 8, 7 and 3 levels at most), and
// MaxDepth 0 (the default, 6), 1, 6, 8, 9 and 64. The points mix uniform
// draws with the coordinates the descent decides at, NaN and ±Inf among
// them: NaN goes to the lower half at every level, ±Inf clamp onto the
// region. An inverted or infinite-span region must be rejected by New, as
// Read rejects it.
func TestGridDescentMatchesArithmetic(t *testing.T) {
	seed := int64(0)
	for _, shape := range []string{"mixed", "inverted", "overflow"} {
		for _, d := range []int{1, 4, 9, 20} {
			for _, maxDepth := range []int{0, 1, 6, 8, 9, 64} {
				seed++
				region := gridRegion(shape, d)
				cfg := Config{Region: region, MaxDepth: maxDepth, MemoryLimit: 1 << 26}
				t.Run(fmt.Sprintf("%s/d=%d/depth=%d", shape, d, maxDepth), func(t *testing.T) {
					if shape != "mixed" {
						if _, err := New(cfg); err == nil {
							t.Fatalf("New accepted the %s region %v", shape, region)
						}
						return
					}
					got, want := mustTree(t, cfg), mustTree(t, cfg)
					if wantDepth := min(got.cfg.MaxDepth, gridLevels, 64/d); got.g.depth != wantDepth {
						t.Fatalf("grid depth %d, want %d", got.g.depth, wantDepth)
					}
					rng := rand.New(rand.NewSource(seed))
					specials := make([][]float64, d)
					for i := range specials {
						specials[i] = specialCoords(region, i, rng)
					}
					draw := func() geom.Point {
						p := make(geom.Point, d)
						for i := range p {
							if rng.Intn(3) == 0 {
								w := region.Hi[i] - region.Lo[i]
								p[i] = region.Lo[i] + (rng.Float64()*1.2-0.1)*w
							} else {
								p[i] = specials[i][rng.Intn(len(specials[i]))]
							}
						}
						return p
					}
					n := 120
					if d*max(got.cfg.MaxDepth, 1) > 500 {
						n = 40
					}
					pts := make([]geom.Point, n)
					for i := range pts {
						pts[i] = draw()
						if err := got.Insert(pts[i], float64(i%13)); err != nil {
							t.Fatal(err)
						}
						refDescentInsert(want, pts[i], float64(i%13))
					}
					if got.Compressions() != 0 {
						t.Fatal("the reference insert does not compress; raise MemoryLimit")
					}
					if !reflect.DeepEqual(got.a.nodes, want.a.nodes) || !reflect.DeepEqual(got.a.kids, want.a.kids) {
						t.Fatal("Insert built a different arena than the Clamp/Child reference")
					}
					snap, clone := got.Snapshot(), got.Clone()
					for j := 0; j < 3*n; j++ {
						p := pts[j%n]
						if j >= n {
							p = draw()
						}
						for _, beta := range []int{1, 3} {
							wv, wd, wok := refDescentPredict(&want.a, region, p, beta)
							if v, depth, ok := got.PredictDepth(p, beta); !sameAnswer(v, depth, ok, wv, wd, wok) {
								t.Fatalf("Tree.PredictDepth(%v, %d) = %g@%d %v, reference %g@%d %v", p, beta, v, depth, ok, wv, wd, wok)
							}
							if v, depth, ok := clone.PredictDepth(p, beta); !sameAnswer(v, depth, ok, wv, wd, wok) {
								t.Fatalf("clone PredictDepth(%v, %d) = %g@%d %v, reference %g@%d %v", p, beta, v, depth, ok, wv, wd, wok)
							}
							if e, ok := snap.PredictEstimate(p, beta); !sameAnswer(e.Value, e.Depth, ok, wv, wd, wok) {
								t.Fatalf("Snapshot.PredictEstimate(%v, %d) = %g@%d %v, reference %g@%d %v", p, beta, e.Value, e.Depth, ok, wv, wd, wok)
							}
						}
					}
				})
			}
		}
	}
}

// sameAnswer compares two predictions bit for bit; a failed one carries no
// value or depth.
func sameAnswer(v float64, depth int, ok bool, wv float64, wd int, wok bool) bool {
	if !ok || !wok {
		return ok == wok
	}
	return math.Float64bits(v) == math.Float64bits(wv) && depth == wd
}

// FuzzDescentCells checks the grid's exactness argument on one dimension:
// New accepts exactly the regions Read accepts (finite bounds lo < hi with
// a finite span), and for each of them the boundaries ascend, and a coordinate's cell, the path's quadrant bits
// and the block the descent continues from below the grid are those of
// depth sequential bisections, each evaluating lo + (hi−lo)/2. Run with
// `go test -fuzz FuzzDescentCells ./internal/quadtree`; the seed corpus
// runs under plain `go test`.
func FuzzDescentCells(f *testing.F) {
	f.Add(0.0, 1000.0, 500.0, uint8(6))
	f.Add(-3.7, 1e6, 499998.15, uint8(8))
	f.Add(1.0, nextUp(1, 3), nextUp(1, 2), uint8(8))
	f.Add(0.0, 3*math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, uint8(7))
	f.Add(0.0, 1.0, math.NaN(), uint8(5))
	f.Add(0.0, 1.0, math.Inf(1), uint8(3))
	f.Add(-1e308, 1e308, 0.0, uint8(8))
	f.Add(5.0, 1.0, 3.0, uint8(4))
	f.Fuzz(func(t *testing.T, lo, hi, v float64, depth uint8) {
		region := geom.Rect{Lo: geom.Point{lo}, Hi: geom.Point{hi}}
		_, newErr := New(Config{Region: region})
		if _, readErr := geom.NewRect(region.Lo, region.Hi); (newErr == nil) != (readErr == nil) {
			t.Fatalf("[%g, %g): New says %v, while Read's geom.NewRect says %v", lo, hi, newErr, readErr)
		}
		if newErr != nil {
			return // no tree, and so no grid, is built for it
		}
		D := int(depth) % (gridLevels + 1)
		g := newGrid(region, D)
		if b := g.dim(0); !slices.IsSorted(b) {
			t.Fatalf("[%g, %g): boundaries of %d levels do not ascend: %v", lo, hi, D, b)
		}
		q := geom.ClampCoord(v, lo, hi)
		l, h, want := lo, hi, 0
		for d := 0; d < g.depth; d++ {
			mid := l + (h-l)/2
			want <<= 1
			if q >= mid {
				want |= 1
				l = mid
			} else {
				h = mid
			}
		}
		b := g.dim(0)
		if c := g.cell(b, g.scale[0], q); c != want {
			t.Fatalf("[%g, %g) depth %d: cell(%g) = %d, bisection path %d", lo, hi, g.depth, q, c, want)
		}
		code := g.path(geom.Point{v})
		for d := 0; d < g.depth; d++ {
			if bit := uint32(want>>(g.depth-1-d)) & 1; g.quadrant(code, d) != bit {
				t.Fatalf("[%g, %g) depth %d: level %d quadrant %d, bisection %d", lo, hi, g.depth, d, g.quadrant(code, d), bit)
			}
		}
		var gq, glo, ghi [1]float64
		g.block(geom.Point{v}, code, gq[:], glo[:], ghi[:])
		if math.Float64bits(glo[0]) != math.Float64bits(l) || math.Float64bits(ghi[0]) != math.Float64bits(h) || math.Float64bits(gq[0]) != math.Float64bits(q) {
			t.Fatalf("[%g, %g) depth %d: block [%g, %g) at %g, bisection [%g, %g) at %g", lo, hi, g.depth, glo[0], ghi[0], gq[0], l, h, q)
		}
	})
}
