package core

import (
	"bytes"
	"testing"
	"time"

	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
	"mlq/internal/histogram"
	"mlq/internal/quadtree"
)

func newTestMLQ(t *testing.T, strat quadtree.Strategy) *MLQ {
	t.Helper()
	m, err := NewMLQ(quadtree.Config{
		Region:      geomtest.MustRect(geom.Point{0, 0}, geom.Point{100, 100}),
		Strategy:    strat,
		MemoryLimit: 50 * quadtree.DefaultNodeBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMLQImplementsFeedbackLoop(t *testing.T) {
	m := newTestMLQ(t, quadtree.Eager)
	if _, ok := m.Predict(geom.Point{50, 50}); ok {
		t.Error("untrained model must report ok=false")
	}
	if err := m.Observe(geom.Point{50, 50}, 123); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Predict(geom.Point{50, 50})
	if !ok || got != 123 {
		t.Errorf("Predict = %g, %v; want 123, true", got, ok)
	}
	if m.Name() != "MLQ-E" {
		t.Errorf("Name = %q", m.Name())
	}
	if newTestMLQ(t, quadtree.Lazy).Name() != "MLQ-L" {
		t.Error("lazy name wrong")
	}
}

func TestNewMLQPropagatesConfigErrors(t *testing.T) {
	if _, err := NewMLQ(quadtree.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCostsAccounting(t *testing.T) {
	m := newTestMLQ(t, quadtree.Eager)
	for i := 0; i < 500; i++ {
		p := geom.Point{float64(i % 100), float64((i * 7) % 100)}
		m.Predict(p)
		if err := m.Observe(p, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Costs()
	if c.Predictions != 500 || c.Inserts != 500 {
		t.Errorf("counters: %+v", c)
	}
	if c.PredictTime <= 0 || c.InsertTime <= 0 {
		t.Errorf("times not recorded: %+v", c)
	}
	if c.Compressions == 0 || c.CompressTime <= 0 {
		t.Errorf("expected compressions under a 50-node budget: %+v", c)
	}
	if c.APC() <= 0 || c.AUC() <= 0 {
		t.Error("APC/AUC must be positive")
	}
	if c.UpdateTime() != c.InsertTime+c.CompressTime {
		t.Error("MUC must equal IC + CC")
	}
}

// The cost sampler times one call in costSampleEvery, starting with the
// first, so both times are positive after any number of calls while the
// counters stay exact.
func TestCostsSampledCounters(t *testing.T) {
	for _, n := range []int{1, costSampleEvery - 1, costSampleEvery, costSampleEvery + 1} {
		m := newTestMLQ(t, quadtree.Eager)
		for i := 0; i < n; i++ {
			p := geom.Point{float64(i % 100), float64((i * 7) % 100)}
			if err := m.Observe(p, float64(i)); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				m.Predict(p)
			} else {
				m.PredictBeta(p, 2)
			}
		}
		c := m.Costs()
		if c.Predictions != int64(n) || c.Inserts != int64(n) {
			t.Errorf("after %d calls: counters %+v", n, c)
		}
		if c.PredictTime <= 0 || c.InsertTime <= 0 {
			t.Errorf("after %d calls: times not recorded: %+v", n, c)
		}
	}
}

// Sampled Observe calls subtract the compression they ran, so IC is never
// negative and MUC = IC + CC with CC the tree's exact compression time.
func TestCostsUpdateTimeWithCompressions(t *testing.T) {
	m := newTestMLQ(t, quadtree.Eager)
	for i := 0; i < 5000; i++ {
		if err := m.Observe(geom.Point{float64(i % 100), float64((i * 31) % 100)}, float64(i%13)); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Costs()
	if c.Compressions == 0 {
		t.Fatal("expected compressions under a 50-node budget")
	}
	if c.CompressTime != m.Tree().CompressTime() {
		t.Errorf("CC = %v, tree compressed for %v", c.CompressTime, m.Tree().CompressTime())
	}
	if c.InsertTime <= 0 || c.CompressTime <= 0 {
		t.Errorf("IC and CC must both be positive: %+v", c)
	}
	if c.UpdateTime() != c.InsertTime+c.CompressTime {
		t.Error("MUC must equal IC + CC")
	}
}

// With fewer than costSampleEvery predictions only the first is timed, and
// the ratio estimator charges every call that one sample: APC is the first
// call's time, which cannot exceed a clock read around that call. Scaling
// the sample by the period instead would report ~64/n times too much.
func TestCostsFewPredictionsAPC(t *testing.T) {
	m := newTestMLQ(t, quadtree.Eager)
	for i := 0; i < 200; i++ {
		if err := m.Observe(geom.Point{float64(i % 100), float64((i * 7) % 100)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	m.Predict(geom.Point{50, 50})
	first := time.Since(start)
	for i := 0; i < 9; i++ {
		m.Predict(geom.Point{float64(i * 10), 20})
	}
	c := m.Costs()
	if c.Predictions != 10 {
		t.Fatalf("Predictions = %d, want 10", c.Predictions)
	}
	if apc := c.APC(); apc <= 0 || apc > first {
		t.Errorf("APC = %v over 10 predictions; the first call took %v around it", apc, first)
	}
}

// TestZeroAllocsPredict pins that APC accounting adds no allocation:
// MLQ.Predict allocates nothing, timed calls included.
func TestZeroAllocsPredict(t *testing.T) {
	m := newTestMLQ(t, quadtree.Lazy)
	for i := 0; i < 2000; i++ {
		if err := m.Observe(geom.Point{float64(i % 100), float64((i * 7) % 100)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pts := []geom.Point{{50, 50}, {-5, 120}, {99.5, 0}, {12, 87}}
	i := 0
	if n := testing.AllocsPerRun(10*costSampleEvery, func() {
		m.Predict(pts[i%len(pts)])
		i++
	}); n != 0 {
		t.Errorf("MLQ.Predict allocates %v/op, want 0", n)
	}
}

func TestCostsZeroDenominator(t *testing.T) {
	var c Costs
	if c.APC() != 0 || c.AUC() != 0 {
		t.Error("zero predictions must yield zero APC/AUC, not panic")
	}
}

func TestPredictBetaOverride(t *testing.T) {
	m := newTestMLQ(t, quadtree.Eager)
	m.Observe(geom.Point{10, 10}, 100)
	m.Observe(geom.Point{12, 12}, 200)
	got, _ := m.PredictBeta(geom.Point{10, 10}, 2)
	if got != 150 {
		t.Errorf("PredictBeta(2) = %g, want pooled 150", got)
	}
}

func TestMLQSerializationRoundTrip(t *testing.T) {
	m := newTestMLQ(t, quadtree.Lazy)
	for i := 0; i < 300; i++ {
		m.Observe(geom.Point{float64(i % 100), float64((i * 13) % 100)}, float64(i))
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMLQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "MLQ-L" {
		t.Errorf("Name after reload = %q", got.Name())
	}
	p := geom.Point{42, 42}
	v1, _ := m.Predict(p)
	v2, _ := got.Predict(p)
	if v1 != v2 {
		t.Errorf("prediction diverged after reload: %g vs %g", v1, v2)
	}
}

func TestReadMLQRejectsGarbage(t *testing.T) {
	if _, err := ReadMLQ(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHistogramSatisfiesModel(t *testing.T) {
	h, err := histogram.Train(histogram.EquiWidth, histogram.Config{
		Region: geomtest.MustRect(geom.Point{0}, geom.Point{10}),
	}, []histogram.Sample{{Point: geom.Point{1}, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var m Model = h
	if got, ok := m.Predict(geom.Point{1}); !ok || got != 5 {
		t.Errorf("histogram via Model = %g, %v", got, ok)
	}
	if m.Name() != "SH-W" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestEstimatorTransform(t *testing.T) {
	// UDF(start, end) modeled by elapsed = end - start, the paper's §3
	// example of a transformation T.
	m, err := NewMLQ(quadtree.Config{
		Region:      geomtest.MustRect(geom.Point{0}, geom.Point{1000}),
		MemoryLimit: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(args []float64) geom.Point {
		return geom.Point{args[1] - args[0]}
	}
	e := NewEstimator(m, elapsed)
	if err := e.Feedback([]float64{100, 200}, 77); err != nil {
		t.Fatal(err)
	}
	// A different call with the same elapsed time maps to the same point.
	got, ok := e.Estimate(500, 600)
	if !ok || got != 77 {
		t.Errorf("Estimate = %g, %v; want 77, true", got, ok)
	}
	if e.Model() != Model(m) {
		t.Error("Model accessor broken")
	}
}

func TestEstimatorNilTransform(t *testing.T) {
	m := newTestMLQ(t, quadtree.Eager)
	e := NewEstimator(m, nil)
	if err := e.Feedback([]float64{5, 5}, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Estimate(5, 5); got != 9 {
		t.Errorf("Estimate = %g, want 9", got)
	}
}

func TestDualEstimator(t *testing.T) {
	cpu := newTestMLQ(t, quadtree.Eager)
	io := newTestMLQ(t, quadtree.Eager)
	d := NewDualEstimator(cpu, io, nil)
	if err := d.Feedback([]float64{10, 10}, 5, 50); err != nil {
		t.Fatal(err)
	}
	c, i, cok, iok := d.Estimate(10, 10)
	if !cok || !iok || c != 5 || i != 50 {
		t.Errorf("Estimate = (%g, %g, %v, %v)", c, i, cok, iok)
	}
}

func TestDualEstimatorPropagatesErrors(t *testing.T) {
	cpu := newTestMLQ(t, quadtree.Eager)
	io := newTestMLQ(t, quadtree.Eager)
	d := NewDualEstimator(cpu, io, nil)
	if err := d.Feedback([]float64{1}, 1, 1); err == nil {
		t.Error("dimension mismatch not propagated")
	}
}
