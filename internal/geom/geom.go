// Package geom provides the multi-dimensional geometry primitives shared by
// the MLQ quadtree, the histogram baselines, and the workload generators:
// points, axis-aligned hyper-rectangles ("blocks"), and the child-index
// arithmetic that recursively partitions a block into 2^d equal sub-blocks.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a location in a d-dimensional data space. Each coordinate is one
// model variable of a UDF cost model.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// String renders the point as "(x1, x2, ...)" with compact precision.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is an axis-aligned hyper-rectangle [Lo, Hi) in d dimensions. It is the
// region ("block") indexed by one quadtree node. The half-open convention
// makes the 2^d children of a block an exact tiling of it.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle spanning [lo, hi) and validates that the bounds
// are well formed.
func NewRect(lo, hi Point) (Rect, error) {
	r := Rect{Lo: lo, Hi: hi}
	if err := r.Validate(); err != nil {
		return Rect{}, err
	}
	return r.Clone(), nil
}

// Validate reports whether r is a well-formed region: Lo and Hi of one
// nonzero dimensionality and, along every dimension, Lo < Hi (neither NaN)
// with finite bounds and a finite span Hi−Lo. Those are what the recursive
// midpoint subdivision needs: an inverted extent has no interior, and an
// infinite one splits at NaN (Inf/2 − Inf).
func (r Rect) Validate() error {
	if len(r.Lo) != len(r.Hi) {
		return fmt.Errorf("geom: bound dimensionality mismatch: %d vs %d", len(r.Lo), len(r.Hi))
	}
	if len(r.Lo) == 0 {
		return fmt.Errorf("geom: zero-dimensional rectangle")
	}
	for i, lo := range r.Lo {
		hi := r.Hi[i]
		if !(lo < hi) { // also rejects NaN
			return fmt.Errorf("geom: dimension %d: lo=%g must be < hi=%g", i, lo, hi)
		}
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(hi-lo, 0) {
			return fmt.Errorf("geom: dimension %d: bounds [%g, %g) must have a finite span", i, lo, hi)
		}
	}
	return nil
}

// UnitCube returns the rectangle [0,1)^d.
func UnitCube(d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := range hi {
		hi[i] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect { return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()} }

// Contains reports whether p lies inside [Lo, Hi). Points exactly on an upper
// bound of the root region are treated as inside by Clamp before insertion,
// so Contains is strict here.
func (r Rect) Contains(p Point) bool {
	if len(p) != len(r.Lo) {
		return false
	}
	for i, v := range p {
		if v < r.Lo[i] || v >= r.Hi[i] {
			return false
		}
	}
	return true
}

// Clamp returns a copy of p moved to the nearest representable location
// strictly inside the rectangle. Coordinates at or beyond Hi are pulled just
// below it; coordinates below Lo are raised to Lo. This lets callers insert
// boundary points (e.g. an argument at its documented maximum) without
// special-casing the half-open convention.
func (r Rect) Clamp(p Point) Point {
	q := make(Point, len(p))
	r.ClampInto(q, p)
	return q
}

// ClampInto is Clamp writing into dst instead of allocating: dst[i] becomes
// p's i-th coordinate clamped into the rectangle, for every i < len(p). dst
// must be at least len(p) long and may alias p. The hot prediction and
// insertion paths clamp into stack buffers with it.
func (r Rect) ClampInto(dst, p Point) {
	for i, v := range p {
		dst[i] = ClampCoord(v, r.Lo[i], r.Hi[i])
	}
}

// ClampCoord is Clamp for one coordinate of the interval [lo, hi): v at or
// beyond hi is pulled just below it, v below lo is raised to lo, and NaN
// is returned unchanged.
func ClampCoord(v, lo, hi float64) float64 {
	if v < lo {
		v = lo
	}
	if v >= hi {
		v = math.Nextafter(hi, math.Inf(-1))
		if v < lo {
			v = lo
		}
	}
	return v
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range c {
		c[i] = r.Lo[i] + (r.Hi[i]-r.Lo[i])/2
	}
	return c
}

// Diagonal returns the Euclidean distance between the two extreme corners.
func (r Rect) Diagonal() float64 {
	var s float64
	for i := range r.Lo {
		d := r.Hi[i] - r.Lo[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ChildIndex returns which of the 2^d children of this block the point maps
// into. Bit i of the index is set when p's i-th coordinate lies in the upper
// half of the block along dimension i.
func (r Rect) ChildIndex(p Point) uint32 {
	var idx uint32
	for i, v := range p {
		mid := r.Lo[i] + (r.Hi[i]-r.Lo[i])/2
		if v >= mid {
			idx |= 1 << uint(i)
		}
	}
	return idx
}

// Child returns the sub-block with the given index produced by halving the
// block along every dimension.
func (r Rect) Child(idx uint32) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		mid := r.Lo[i] + (r.Hi[i]-r.Lo[i])/2
		if idx&(1<<uint(i)) != 0 {
			lo[i], hi[i] = mid, r.Hi[i]
		} else {
			lo[i], hi[i] = r.Lo[i], mid
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// String renders the rectangle as "[lo .. hi)".
func (r Rect) String() string {
	return fmt.Sprintf("[%v .. %v)", r.Lo, r.Hi)
}

// Dist returns the Euclidean distance between two points of equal dimension.
func Dist(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
