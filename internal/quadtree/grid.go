package quadtree

import "mlq/internal/geom"

// gridLevels caps the levels a bisection grid resolves: 2^8+1 boundaries,
// about 2 KiB, per dimension.
const gridLevels = 8

// grid is a tree's bisection grid. The descent halves a block [lo, hi)
// along every dimension at lo + (hi−lo)/2, so along one dimension its
// first D levels cut the region at 2^D+1 boundaries b[0] = Lo, …,
// b[2^D] = Hi, where D = min(MaxDepth, gridLevels, 64/dims): the D
// quadrant indices of a path fit one uint64. The grid stores them,
// each evaluated by that expression from the two boundaries of its parent
// block, so they are the very floats the descent computes. They are
// monotone (b[c] ≤ b[c+1]: the rounded midpoint of finite lo < hi with a
// finite span lies in [lo, hi], and New accepts no other region), so the
// bisection path of a clamped coordinate q is the cell
//
//	c = max{c : b[c] ≤ q}
//
// because each level keeps b[first cell] ≤ q < b[last cell + 1] and goes
// to the upper half exactly when q ≥ the midpoint. The descent therefore
// finds each coordinate's cell once, interleaves the cells' bits into the
// path's quadrant indices, and reads one index per level, instead of
// evaluating a midpoint per level and dimension; below D it continues
// with the arithmetic from the cell's stored bounds. A grid is built in
// New and never changes; snapshots and clones share it. It holds no
// observation, so it is not charged to MemoryUsed.
type grid struct {
	depth  int       // D: the levels the cells resolve
	dims   int       // the region's dimensions
	cells  int       // 2^D cells per dimension
	scale  []float64 // per dimension, 2^D/(Hi−Lo): the slope of a cell's first guess
	bounds []float64 // dimension i's 2^D+1 boundaries at [i*(cells+1), (i+1)*(cells+1))
	// spread maps a cell c to its bits spaced dims apart: bit j of c at
	// bit j·dims. A path's code ORs spread[c_i] << i over the dimensions,
	// so level d's quadrant index is the code's dims bits at
	// (D−1−d)·dims.
	spread []uint64
}

// newGrid returns the grid of the first min(maxDepth, gridLevels, 64/dims)
// levels of region: it evaluates their boundaries coarsest level first,
// each midpoint from its parent block's two boundaries.
func newGrid(region geom.Rect, maxDepth int) *grid {
	depth := min(maxDepth, gridLevels, 64/region.Dims())
	n := 1 << depth
	g := &grid{
		depth:  depth,
		dims:   region.Dims(),
		cells:  n,
		scale:  make([]float64, region.Dims()),
		bounds: make([]float64, region.Dims()*(n+1)),
		spread: make([]uint64, n),
	}
	for c := range g.spread {
		for j := 0; j < depth; j++ {
			g.spread[c] |= uint64(c>>j&1) << uint(j*g.dims)
		}
	}
	for i := range region.Lo {
		b := g.dim(i)
		b[0], b[n] = region.Lo[i], region.Hi[i]
		for w := n; w > 1; w /= 2 {
			for j := 0; j < n; j += w {
				b[j+w/2] = b[j] + (b[j+w]-b[j])/2
			}
		}
		g.scale[i] = float64(n) / (b[n] - b[0])
	}
	return g
}

// dim returns dimension i's boundaries.
func (g *grid) dim(i int) []float64 {
	return g.bounds[i*(g.cells+1) : (i+1)*(g.cells+1) : (i+1)*(g.cells+1)]
}

// cell returns the cell of the boundaries b that holds the clamped
// coordinate q: max{c : b[c] ≤ q}, found from a guess by the scale and
// corrected against the boundaries themselves, so the guess's rounding
// never decides. A NaN coordinate gets cell 0: the arithmetic sends it to
// the lower half at every level, since no comparison with NaN holds.
func (g *grid) cell(b []float64, scale, q float64) int {
	last := g.cells - 1
	c := 0
	if x := (q - b[0]) * scale; x >= float64(last) {
		c = last
	} else if x > 0 {
		c = int(x)
	}
	for c > 0 && b[c] > q {
		c--
	}
	for c < last && b[c+1] <= q {
		c++
	}
	return c
}

// path clamps p into the region and returns its code: the quadrant
// indices the descent takes at the grid's levels, level d's at bit
// (D−1−d)·dims (see quadrant). Only a coordinate that is NaN or outside
// [Lo, Hi) goes through geom.ClampCoord, which leaves every other one as
// it is.
func (g *grid) path(p geom.Point) (code uint64) {
	n := g.cells
	for i, v := range p {
		b := g.bounds[i*(n+1) : (i+1)*(n+1)]
		if !(v >= b[0] && v < b[n]) {
			v = geom.ClampCoord(v, b[0], b[n])
		}
		code |= g.spread[g.cell(b, g.scale[i], v)] << uint(i)
	}
	return code
}

// quadrant returns the quadrant index at level d < D of the path code.
func (g *grid) quadrant(code uint64, d int) uint32 {
	return uint32(code>>uint((g.depth-1-d)*g.dims)) & (1<<uint(g.dims) - 1)
}

// block writes p clamped into q, and into lo and hi the bounds of the
// block at depth D on the path code: where a descent below the grid
// continues from.
func (g *grid) block(p geom.Point, code uint64, q, lo, hi []float64) {
	for i, v := range p {
		b := g.dim(i)
		c := 0
		for j := 0; j < g.depth; j++ {
			c |= int(code>>uint(j*g.dims+i)&1) << uint(j)
		}
		q[i] = geom.ClampCoord(v, b[0], b[g.cells])
		lo[i], hi[i] = b[c], b[c+1]
	}
}

// bisect returns the quadrant of the block [lo, hi) that holds q and
// narrows the block to it, with the midpoint expression of
// geom.Rect.ChildIndex and Child.
func bisect(q, lo, hi []float64) uint32 {
	var idx uint32
	for i, v := range q {
		mid := lo[i] + (hi[i]-lo[i])/2
		if v >= mid {
			idx |= 1 << uint(i)
			lo[i] = mid
		} else {
			hi[i] = mid
		}
	}
	return idx
}

// scratch returns three n-long buffers for a descent below the grid,
// slices of the caller's stack arrays up to 8 dimensions, heap ones past.
func scratch(n int, qbuf, lobuf, hibuf *[8]float64) (q, lo, hi []float64) {
	if n <= len(qbuf) {
		return qbuf[:n], lobuf[:n], hibuf[:n]
	}
	return make([]float64, n), make([]float64, n), make([]float64, n)
}
