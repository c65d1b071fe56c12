package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectValidation(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi Point
		ok     bool
	}{
		{"valid 1d", Point{0}, Point{1}, true},
		{"valid 3d", Point{0, -5, 2}, Point{1, 5, 3}, true},
		{"dim mismatch", Point{0, 0}, Point{1}, false},
		{"empty", Point{}, Point{}, false},
		{"inverted", Point{1}, Point{0}, false},
		{"degenerate", Point{1}, Point{1}, false},
		{"nan lo", Point{math.NaN()}, Point{1}, false},
		{"nan hi", Point{0}, Point{math.NaN()}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewRect(c.lo, c.hi)
			if (err == nil) != c.ok {
				t.Errorf("NewRect(%v, %v) err=%v, want ok=%v", c.lo, c.hi, err, c.ok)
			}
		})
	}
}

// MustRect is a fixture helper: geomtest.MustRect cannot be used here
// because this is an in-package test (geomtest imports geom).
func MustRect(lo, hi Point) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

func TestMustRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRect on inverted bounds did not panic")
		}
	}()
	MustRect(Point{1}, Point{0})
}

func TestNewRectClonesBounds(t *testing.T) {
	lo, hi := Point{0, 0}, Point{1, 1}
	r, err := NewRect(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	lo[0] = 99
	if r.Lo[0] != 0 {
		t.Error("NewRect aliases caller's lo slice")
	}
}

func TestUnitCube(t *testing.T) {
	r := UnitCube(3)
	if r.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", r.Dims())
	}
	if !r.Contains(Point{0, 0, 0}) {
		t.Error("unit cube should contain origin")
	}
	if r.Contains(Point{1, 0, 0}) {
		t.Error("unit cube is half-open; must exclude upper bound")
	}
}

func TestContainsDimensionMismatch(t *testing.T) {
	r := UnitCube(2)
	if r.Contains(Point{0.5}) {
		t.Error("Contains must reject points of wrong dimensionality")
	}
}

func TestClamp(t *testing.T) {
	r := MustRect(Point{0, 0}, Point{10, 10})
	p := r.Clamp(Point{-1, 10})
	if !r.Contains(p) {
		t.Fatalf("Clamp result %v not contained in %v", p, r)
	}
	if p[0] != 0 {
		t.Errorf("low clamp: got %g, want 0", p[0])
	}
	if p[1] >= 10 || p[1] < 9.999 {
		t.Errorf("high clamp: got %g, want just below 10", p[1])
	}
	// Interior points are unchanged.
	q := r.Clamp(Point{5, 5})
	if q[0] != 5 || q[1] != 5 {
		t.Errorf("interior point moved by Clamp: %v", q)
	}
}

// ClampInto writes exactly what Clamp returns, including when dst aliases
// p, and leaves p alone otherwise.
func TestClampIntoMatchesClamp(t *testing.T) {
	r := MustRect(Point{0, -5, 2}, Point{10, 5, 3})
	for _, p := range []Point{{-1, 10, 2.5}, {5, 0, 3}, {10, -5, 1}, {math.NaN(), 4.9, 2}} {
		want := r.Clamp(p)
		orig := p.Clone()
		var buf [3]float64
		r.ClampInto(buf[:], p)
		alias := p.Clone()
		r.ClampInto(alias, alias)
		for i := range want {
			same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
			if !same(buf[i], want[i]) || !same(alias[i], want[i]) {
				t.Errorf("ClampInto(%v) = %v (aliased %v), Clamp = %v", p, buf, alias, want)
			}
			if !same(p[i], orig[i]) {
				t.Errorf("ClampInto modified its input: %v, was %v", p, orig)
			}
		}
	}
}

func TestCenterAndDiagonal(t *testing.T) {
	r := MustRect(Point{0, 0}, Point{4, 3})
	c := r.Center()
	if c[0] != 2 || c[1] != 1.5 {
		t.Errorf("Center = %v, want (2, 1.5)", c)
	}
	if got := r.Diagonal(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Diagonal = %g, want 5", got)
	}
}

func TestChildIndexCorners(t *testing.T) {
	r := MustRect(Point{0, 0}, Point{2, 2})
	cases := []struct {
		p    Point
		want uint32
	}{
		{Point{0.5, 0.5}, 0},
		{Point{1.5, 0.5}, 1},
		{Point{0.5, 1.5}, 2},
		{Point{1.5, 1.5}, 3},
		{Point{1, 1}, 3}, // midpoints belong to the upper half
	}
	for _, c := range cases {
		if got := r.ChildIndex(c.p); got != c.want {
			t.Errorf("ChildIndex(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// Property: for any point inside a block, the child block selected by
// ChildIndex contains the point, and no other child does.
func TestChildPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		d := 1 + rng.Intn(5)
		lo := make(Point, d)
		hi := make(Point, d)
		for i := 0; i < d; i++ {
			lo[i] = rng.Float64()*20 - 10
			hi[i] = lo[i] + rng.Float64()*10 + 0.001
		}
		r := MustRect(lo, hi)
		p := make(Point, d)
		for i := 0; i < d; i++ {
			p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])*0.999999
		}
		idx := r.ChildIndex(p)
		owners := 0
		for c := uint32(0); c < 1<<uint(d); c++ {
			child := r.Child(c)
			if child.Contains(p) {
				owners++
				if c != idx {
					t.Fatalf("point %v owned by child %d but ChildIndex says %d", p, c, idx)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("point %v contained in %d children, want exactly 1", p, owners)
		}
	}
}

// Property: children tile the parent — their measure sums to the parent's
// measure and they are pairwise disjoint at sampled points.
func TestChildrenTileParent(t *testing.T) {
	r := MustRect(Point{-3, 2, 0}, Point{5, 6, 1})
	volume := func(x Rect) float64 {
		v := 1.0
		for i := range x.Lo {
			v *= x.Hi[i] - x.Lo[i]
		}
		return v
	}
	var sum float64
	for c := uint32(0); c < 8; c++ {
		sum += volume(r.Child(c))
	}
	if math.Abs(sum-volume(r)) > 1e-9 {
		t.Errorf("child volumes sum to %g, parent volume %g", sum, volume(r))
	}
}

func TestDistSymmetry(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		return math.Abs(Dist(a, b)-Dist(b, a)) < 1e-9 && Dist(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistKnown(t *testing.T) {
	if got := Dist(Point{0, 0}, Point{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", got)
	}
}

func TestPointString(t *testing.T) {
	p := Point{1, 2.5}
	if got := p.String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
	r := UnitCube(2)
	rc := r.Clone()
	rc.Lo[0] = 9
	if r.Lo[0] != 0 {
		t.Error("Rect.Clone shares backing array")
	}
}

func TestNewRectRejectsInfiniteSpans(t *testing.T) {
	cases := [][2]Point{
		{{math.Inf(-1)}, {0}},
		{{0}, {math.Inf(1)}},
		{{math.Inf(-1)}, {math.Inf(1)}},
		{{-math.MaxFloat64}, {math.MaxFloat64}}, // span overflows to +Inf
	}
	for i, c := range cases {
		if _, err := NewRect(c[0], c[1]); err == nil {
			t.Errorf("case %d: infinite-span bounds accepted", i)
		}
	}
}
