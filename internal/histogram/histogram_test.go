package histogram

import (
	"math"
	"math/rand"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
)

func region2() geom.Rect {
	return geomtest.MustRect(geom.Point{0, 0}, geom.Point{100, 100})
}

func TestKindString(t *testing.T) {
	if EquiWidth.String() != "SH-W" || EquiHeight.String() != "SH-H" {
		t.Error("kind names must match the paper")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(EquiWidth, Config{}, nil); err == nil {
		t.Error("missing region accepted")
	}
	if _, err := Train(Kind(9), Config{Region: region2()}, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Train(EquiWidth, Config{Region: region2()},
		[]Sample{{Point: geom.Point{1}, Value: 1}}); err == nil {
		t.Error("dimension-mismatched sample accepted")
	}
	if _, err := Train(EquiWidth, Config{Region: region2()},
		[]Sample{{Point: geom.Point{1, 1}, Value: math.NaN()}}); err == nil {
		t.Error("NaN sample accepted")
	}
}

func TestUntrainedPredict(t *testing.T) {
	h, err := Train(EquiWidth, Config{Region: region2()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Predict(geom.Point{50, 50}); ok {
		t.Error("untrained histogram must report ok=false")
	}
	if h.Observe(geom.Point{50, 50}, 1) != nil {
		t.Error("Observe must be a nil-error no-op")
	}
}

func TestEquiWidthBucketAverages(t *testing.T) {
	// Two intervals per dimension: 4 buckets over [0,100)^2.
	h, err := Train(EquiWidth, Config{Region: region2(), Intervals: 2}, []Sample{
		{Point: geom.Point{10, 10}, Value: 100},
		{Point: geom.Point{20, 20}, Value: 200},
		{Point: geom.Point{80, 10}, Value: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 4 || h.Intervals() != 2 {
		t.Fatalf("buckets=%d intervals=%d", h.Buckets(), h.Intervals())
	}
	if got, _ := h.Predict(geom.Point{30, 30}); got != 150 {
		t.Errorf("lower-left bucket = %g, want 150", got)
	}
	if got, _ := h.Predict(geom.Point{90, 40}); got != 400 {
		t.Errorf("lower-right bucket = %g, want 400", got)
	}
	// Empty bucket falls back to the global average (700/3).
	if got, _ := h.Predict(geom.Point{90, 90}); !almostEq(got, 700.0/3) {
		t.Errorf("empty bucket = %g, want global avg %g", got, 700.0/3)
	}
	if h.TrainingSize() != 3 {
		t.Errorf("TrainingSize = %d", h.TrainingSize())
	}
}

func TestEquiWidthBoundaryClamping(t *testing.T) {
	h, err := Train(EquiWidth, Config{Region: region2(), Intervals: 4}, []Sample{
		{Point: geom.Point{99.999, 99.999}, Value: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Querying at and beyond the upper corner must hit the last bucket.
	if got, _ := h.Predict(geom.Point{100, 100}); got != 7 {
		t.Errorf("corner query = %g, want 7", got)
	}
	if got, _ := h.Predict(geom.Point{150, 150}); got != 7 {
		t.Errorf("out-of-range query = %g, want 7", got)
	}
}

func TestEquiHeightBoundsFollowData(t *testing.T) {
	// 90% of the mass in [0,10): equi-height boundaries must concentrate
	// there, giving that region finer resolution than equi-width.
	rng := rand.New(rand.NewSource(2))
	var samples []Sample
	for i := 0; i < 1000; i++ {
		var x float64
		if i%10 != 0 {
			x = rng.Float64() * 10
		} else {
			x = 10 + rng.Float64()*90
		}
		samples = append(samples, Sample{Point: geom.Point{x, 50}, Value: x})
	}
	h, err := Train(EquiHeight, Config{Region: region2(), Intervals: 4}, samples)
	if err != nil {
		t.Fatal(err)
	}
	inHot := 0
	for _, b := range h.bounds[0] {
		if b < 10 {
			inHot++
		}
	}
	if inHot < 2 {
		t.Errorf("only %d of 3 dim-0 boundaries inside the hot region", inHot)
	}
}

func TestEquiHeightEmptyTrainingDegeneratesToEquiWidth(t *testing.T) {
	h, err := Train(EquiHeight, Config{Region: region2(), Intervals: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{25, 50, 75}
	for dim := 0; dim < 2; dim++ {
		for i, b := range h.bounds[dim] {
			if !almostEq(b, want[i]) {
				t.Errorf("dim %d boundary %d = %g, want %g", dim, i, b, want[i])
			}
		}
	}
}

func TestIntervalsDerivedFromMemory(t *testing.T) {
	// d=4, bucket 12 bytes: 2^4*12=192 fits in 1.8KB; 3^4*12=972 fits;
	// 4^4*12=3072 does not. So SH-W gets 3 intervals per dim.
	region := geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1, 1, 1, 1})
	h, err := Train(EquiWidth, Config{Region: region}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Intervals() != 3 {
		t.Errorf("SH-W intervals = %d, want 3 under 1.8KB", h.Intervals())
	}
	if h.MemoryUsed() > 1843 {
		t.Errorf("memory %d exceeds limit", h.MemoryUsed())
	}
	hh, err := Train(EquiHeight, Config{Region: region}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hh.MemoryUsed() > 1843 {
		t.Errorf("SH-H memory %d exceeds limit", hh.MemoryUsed())
	}
	if hh.Intervals() > h.Intervals() {
		t.Error("SH-H cannot afford more intervals than SH-W at equal memory")
	}
}

func TestTinyMemoryStillWorks(t *testing.T) {
	h, err := Train(EquiWidth, Config{Region: region2(), MemoryLimit: 1},
		[]Sample{{Point: geom.Point{1, 1}, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Intervals() != 1 || h.Buckets() != 1 {
		t.Errorf("intervals=%d buckets=%d, want 1,1", h.Intervals(), h.Buckets())
	}
	if got, _ := h.Predict(geom.Point{99, 99}); got != 5 {
		t.Errorf("single-bucket predict = %g, want 5", got)
	}
}

// Property: on uniformly distributed training data, both histogram kinds
// approximate a smooth linear surface with small error.
func TestApproximatesSmoothSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cost := func(p geom.Point) float64 { return 3*p[0] + 2*p[1] }
	var samples []Sample
	for i := 0; i < 5000; i++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		samples = append(samples, Sample{Point: p, Value: cost(p)})
	}
	for _, kind := range []Kind{EquiWidth, EquiHeight} {
		h, err := Train(kind, Config{Region: region2(), Intervals: 8}, samples)
		if err != nil {
			t.Fatal(err)
		}
		var absErr, total float64
		for i := 0; i < 1000; i++ {
			p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
			pred, ok := h.Predict(p)
			if !ok {
				t.Fatal("trained histogram refused to predict")
			}
			absErr += math.Abs(pred - cost(p))
			total += cost(p)
		}
		if nae := absErr / total; nae > 0.1 {
			t.Errorf("%v NAE = %g on a smooth surface, want < 0.1", kind, nae)
		}
	}
}

// Property: equi-height matches or beats equi-width on heavily skewed data,
// the advantage the paper attributes to SH-H.
func TestEquiHeightBeatsEquiWidthOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Cost varies rapidly in [0,5), flat elsewhere; queries live in [0,5).
	cost := func(p geom.Point) float64 {
		if p[0] < 5 {
			return 1000 * math.Sin(p[0])
		}
		return 50
	}
	var samples []Sample
	for i := 0; i < 4000; i++ {
		x := rng.Float64() * 5
		p := geom.Point{x, rng.Float64() * 100}
		samples = append(samples, Sample{Point: p, Value: cost(p)})
	}
	nae := func(kind Kind) float64 {
		h, err := Train(kind, Config{Region: region2(), Intervals: 4}, samples)
		if err != nil {
			t.Fatal(err)
		}
		var absErr, total float64
		for i := 0; i < 1000; i++ {
			p := geom.Point{rng.Float64() * 5, rng.Float64() * 100}
			pred, _ := h.Predict(p)
			absErr += math.Abs(pred - cost(p))
			total += math.Abs(cost(p))
		}
		return absErr / total
	}
	w, hgt := nae(EquiWidth), nae(EquiHeight)
	if hgt > w*1.05 {
		t.Errorf("SH-H NAE %g worse than SH-W %g on skewed workload", hgt, w)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestZeroAllocsPredict pins that prediction clamps into a stack buffer:
// Predict allocates nothing for either kind, including for points it has
// to clamp.
func TestZeroAllocsPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for i := 0; i < 2000; i++ {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		samples = append(samples, Sample{Point: p, Value: p[0] + p[1]})
	}
	queries := make([]geom.Point, 256)
	for i := range queries {
		queries[i] = geom.Point{rng.Float64()*120 - 10, rng.Float64()*120 - 10}
	}
	for _, kind := range []Kind{EquiWidth, EquiHeight} {
		h, err := Train(kind, Config{Region: region2(), Intervals: 8}, samples)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			h.Predict(queries[i%len(queries)])
			i++
		}); n != 0 {
			t.Errorf("%v Predict allocates %v/op, want 0", kind, n)
		}
	}
}
