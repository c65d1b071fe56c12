package core

import (
	"math"
	"sync"
	"testing"

	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/histogram"
	"mlq/internal/quadtree"
)

func fallbackMLQ(t *testing.T) *MLQ {
	t.Helper()
	m, err := NewMLQ(quadtree.Config{Region: geom.UnitCube(2), MemoryLimit: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func trainedHist(t *testing.T, value float64) *histogram.Histogram {
	t.Helper()
	samples := []histogram.Sample{
		{Point: geom.Point{0.25, 0.25}, Value: value},
		{Point: geom.Point{0.75, 0.75}, Value: value},
	}
	h, err := histogram.Train(histogram.EquiWidth,
		histogram.Config{Region: geom.UnitCube(2), MemoryLimit: 1843}, samples)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidCost(t *testing.T) {
	for _, v := range []float64{0, 1, 1e12} {
		if !ValidCost(v) {
			t.Errorf("ValidCost(%g) = false", v)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-9} {
		if ValidCost(v) {
			t.Errorf("ValidCost(%g) = true", v)
		}
	}
}

func TestNewFallbackValidation(t *testing.T) {
	if _, err := NewFallback(math.NaN()); err == nil {
		t.Error("NaN prior accepted")
	}
	if _, err := NewFallback(-1); err == nil {
		t.Error("negative prior accepted")
	}
	fb, err := NewFallback(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Members()) != 0 {
		t.Error("nil members not skipped")
	}
}

func TestFallbackAlwaysAnswers(t *testing.T) {
	// Untrained MLQ, untrained... everything: the prior must answer.
	fb, err := NewFallback(7.5, fallbackMLQ(t))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := fb.Predict(geom.Point{0.5, 0.5})
	if !ok || v != 7.5 {
		t.Fatalf("untrained chain answered (%g, %v), want prior 7.5", v, ok)
	}
	if s := fb.Stats(); s.Prior != 1 {
		t.Errorf("prior answers = %d, want 1", s.Prior)
	}
}

func TestFallbackChainOrder(t *testing.T) {
	mlq := fallbackMLQ(t)
	hist := trainedHist(t, 100)
	fb, err := NewFallback(5, mlq, hist)
	if err != nil {
		t.Fatal(err)
	}
	// MLQ untrained → the static histogram answers.
	if v, _ := fb.Predict(geom.Point{0.5, 0.5}); v != 100 {
		t.Fatalf("static level answered %g, want 100", v)
	}
	// Train the self-tuning member through the chain; it takes over.
	for i := 0; i < 50; i++ {
		p := geom.Point{float64(i%10) / 10, float64(i%7) / 7}
		if err := fb.Observe(p, 20); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := fb.Predict(geom.Point{0.5, 0.5}); v != 20 {
		t.Fatalf("self-tuning level answered %g, want 20", v)
	}
	s := fb.Stats()
	if s.Answered[0] == 0 || s.Answered[1] == 0 {
		t.Errorf("chain levels unused: %+v", s)
	}
	// Observations must not have reached the static member.
	if v, _ := hist.Predict(geom.Point{0.5, 0.5}); v != 100 {
		t.Errorf("static member drifted to %g", v)
	}
}

func TestFallbackRejectsInvalidObservations(t *testing.T) {
	mlq := fallbackMLQ(t)
	fb, err := NewFallback(1, mlq)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -4} {
		if err := fb.Observe(geom.Point{0.5, 0.5}, v); err == nil {
			t.Errorf("Observe(%g) accepted", v)
		}
	}
	if s := fb.Stats(); s.Rejected != 3 {
		t.Errorf("Rejected = %d, want 3", s.Rejected)
	}
	// Nothing reached the MLQ member.
	if n := mlq.Costs().Inserts; n != 0 {
		t.Errorf("invalid observations reached the model: %d inserts", n)
	}
}

func TestFallbackName(t *testing.T) {
	fb, _ := NewFallback(1, fallbackMLQ(t), trainedHist(t, 1))
	if got := fb.Name(); got != "FB(MLQ-E→SH-W→prior)" {
		t.Errorf("Name = %q", got)
	}
}

// TestSynchronizedFallbackUnderFaultFire hammers a Fallback, its calls
// serialized by one mutex, with concurrent Predict/Observe while a fault
// injector corrupts a fraction of the observed costs. Run under -race. The
// model must stay consistent: no data race, every prediction valid,
// corrupted observations rejected rather than absorbed.
func TestSynchronizedFallbackUnderFaultFire(t *testing.T) {
	mlq := fallbackMLQ(t)
	fb, err := NewFallback(2, mlq, trainedHist(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	var modelMu sync.Mutex
	predict := func(p geom.Point) (float64, bool) {
		modelMu.Lock()
		defer modelMu.Unlock()
		return fb.Predict(p)
	}

	const goroutines = 8
	const iters = 2000
	var rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			inj := faults.New(int64(g + 1))
			inj.Enable(faults.ObserveCost, faults.SiteConfig{Probability: 0.25})
			var myRejected int64
			for i := 0; i < iters; i++ {
				p := geom.Point{float64(i%13) / 13, float64((i*g)%17) / 17}
				if v, ok := predict(p); !ok || !ValidCost(v) {
					t.Errorf("invalid prediction (%g, %v)", v, ok)
					return
				}
				obs, _ := inj.MaybeCorruptCost(10 + float64(i%5))
				modelMu.Lock()
				err := fb.Observe(p, obs)
				modelMu.Unlock()
				if err != nil {
					myRejected++
				}
			}
			mu.Lock()
			rejected += myRejected
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	if rejected == 0 {
		t.Error("no corrupted observation was rejected — quarantine inactive")
	}
	// ~25% of observations are corrupted; 3 of the 4 corruption kinds are
	// invalid (outliers are valid-but-wrong), so roughly 3/16 get rejected.
	total := int64(goroutines * iters)
	if rejected > total/2 {
		t.Errorf("rejected %d of %d — far more than the corruption rate", rejected, total)
	}
	// The surviving model still predicts sanely everywhere.
	for _, p := range []geom.Point{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}} {
		v, ok := predict(p)
		if !ok || !ValidCost(v) {
			t.Fatalf("post-hammer prediction invalid at %v: (%g, %v)", p, v, ok)
		}
	}
}
