package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/quadtree"
)

func publisherModel(t *testing.T) *MLQ {
	t.Helper()
	m, err := NewMLQ(quadtree.Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    5,
		MemoryLimit: 60 * quadtree.DefaultNodeBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublisherObserveValidation(t *testing.T) {
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Observe(geom.Point{0.5}, 1); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	if err := pub.Observe(geom.Point{0.5, 0.5}, math.NaN()); err == nil {
		t.Error("NaN not rejected")
	}
	if err := pub.Observe(geom.Point{0.5, 0.5}, math.Inf(1)); err == nil {
		t.Error("Inf not rejected")
	}
}

func TestPublisherFlushMakesObservationsVisible(t *testing.T) {
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, ok := pub.Predict(geom.Point{0.5, 0.5}); ok {
		t.Fatal("empty model must predict ok=false")
	}
	for i := 0; i < 100; i++ {
		if err := pub.Observe(geom.Point{0.5, 0.5}, 42); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	if pub.Staleness() != 0 {
		t.Errorf("staleness %d after Flush, want 0", pub.Staleness())
	}
	v, ok := pub.Predict(geom.Point{0.5, 0.5})
	if !ok || v != 42 {
		t.Errorf("Predict = %g, %v after flush; want 42, true", v, ok)
	}
	if pub.Epoch() == 0 {
		t.Error("epoch still 0 after a published batch")
	}
	if pub.Snapshot().Inserts() != 100 {
		t.Errorf("snapshot inserts %d, want 100", pub.Snapshot().Inserts())
	}
}

func TestPublisherCloseDrainsAndRejects(t *testing.T) {
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := pub.Observe(geom.Point{0.25, 0.75}, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Errorf("second Close returned %v, want nil (idempotent)", err)
	}
	if pub.Snapshot().Inserts() != 50 {
		t.Errorf("final snapshot has %d inserts, want all 50 drained", pub.Snapshot().Inserts())
	}
	if err := pub.Observe(geom.Point{0.25, 0.75}, 7); err == nil {
		t.Error("Observe after Close must error")
	}
	if err := pub.Flush(); err == nil {
		t.Error("Flush after Close must error")
	}
}

func TestPublisherCloseIdempotentObserveTyped(t *testing.T) {
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Observe(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}

	// Concurrent Closes must all return the same answer without panicking
	// (double close of the stop channel was the historical hazard).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pub.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close %d returned %v", i, err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("repeat Close returned %v", err)
	}

	if err := pub.Observe(geom.Point{0.5, 0.5}, 2); !errors.Is(err, ErrPublisherClosed) {
		t.Fatalf("Observe after Close: err %v, want ErrPublisherClosed", err)
	}
	if err := pub.Flush(); !errors.Is(err, ErrPublisherClosed) {
		t.Fatalf("Flush after Close: err %v, want ErrPublisherClosed", err)
	}
	// Prediction against the last published snapshot must keep working.
	if _, ok := pub.Predict(geom.Point{0.5, 0.5}); !ok {
		t.Fatal("Predict stopped working after Close")
	}
}

// The central correctness claim of the batched-Observe deviation: batching
// changes latency, never ordering, so the publisher's tree converges to the
// exact tree serial Observe builds — proven on serialized bytes.
func TestPublisherConvergesToSerialObserve(t *testing.T) {
	cfg := quadtree.Config{
		Region:      geom.UnitCube(2),
		Strategy:    quadtree.Lazy,
		MaxDepth:    6,
		MemoryLimit: 48 * quadtree.DefaultNodeBytes,
	}
	serial, err := NewMLQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batchedModel, err := NewMLQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(batchedModel, PublisherConfig{QueueCapacity: 32, MaxBatch: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4000; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		v := rng.Float64() * 1000
		if err := serial.Observe(p, v); err != nil {
			t.Fatal(err)
		}
		if err := pub.Observe(p, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := serial.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("batched tree (%d bytes) differs from serial tree (%d bytes)", b.Len(), a.Len())
	}
}

// The -race hammer: many predictors against one observer. Asserts the three
// published guarantees — predictions are never torn (always finite, in the
// observed value range), epochs are monotonic per reader, and staleness
// never exceeds QueueCapacity + MaxBatch.
func TestPublisherHammer(t *testing.T) {
	const (
		queueCap   = 64
		maxBatch   = 16
		predictors = 6
		inserts    = 5000
	)
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{QueueCapacity: queueCap, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, predictors+1)

	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastEpoch uint64
			for !stop.Load() {
				p := geom.Point{rng.Float64(), rng.Float64()}
				if v, ok := pub.Predict(p); ok {
					// Observed values lie in [0, 1000); any prediction is a
					// weighted average of them, so an out-of-range or
					// non-finite value can only come from a torn read.
					if math.IsNaN(v) || v < 0 || v >= 1000 {
						errs <- "torn or out-of-range prediction"
						return
					}
				}
				e := pub.Epoch()
				if e < lastEpoch {
					errs <- "epoch went backwards"
					return
				}
				lastEpoch = e
				if s := pub.Staleness(); s > queueCap+maxBatch {
					errs <- "staleness exceeded queue capacity + batch size"
					return
				}
			}
		}(int64(g + 1))
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < inserts; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		if err := pub.Observe(p, rng.Float64()*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pub.Snapshot().Inserts(); got != inserts {
		t.Errorf("final snapshot has %d inserts, want %d", got, inserts)
	}
}

func TestPublisherConcurrentObservers(t *testing.T) {
	// The Model contract allows any goroutine to call Observe; concurrent
	// observers must all be accepted and drained (ordering across goroutines
	// is unspecified, totals are not).
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{QueueCapacity: 16, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const per = 500
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				pub.Observe(geom.Point{rng.Float64(), rng.Float64()}, rng.Float64())
			}
		}(int64(g))
	}
	wg.Wait()
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pub.Snapshot().Inserts(); got != 4*per {
		t.Errorf("drained %d observations, want %d", got, 4*per)
	}
}

// TestPublisherObserveRacingClose pins the Close ordering: an Observe that
// returns nil has been acknowledged, so it must be in the final snapshot
// even when it raced Close. Each round lets four observers run into a Close
// issued at a different point of the stream, then checks that every nil
// return was applied and that Applied == Submitted.
func TestPublisherObserveRacingClose(t *testing.T) {
	const rounds, observers, perObserver = 2000, 4, 200
	lost := 0
	for r := 0; r < rounds; r++ {
		// A 4-slot queue keeps observers waiting for space when Close
		// arrives, so Close must also wait out an Observe blocked in the
		// send.
		pub, err := NewPublisher(publisherModel(t), PublisherConfig{QueueCapacity: 4, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		closeAfter := int64(r % 100)
		var acked atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < observers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r*observers + g)))
				for i := 0; i < perObserver; i++ {
					err := pub.Observe(geom.Point{rng.Float64(), rng.Float64()}, rng.Float64())
					if err != nil {
						if !errors.Is(err, ErrPublisherClosed) {
							t.Errorf("round %d: Observe: %v", r, err)
						}
						return
					}
					acked.Add(1)
				}
			}(g)
		}
		for acked.Load() < closeAfter {
			runtime.Gosched()
		}
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		st := pub.Stats()
		if got := pub.Snapshot().Inserts(); got != acked.Load() || st.Applied != st.Submitted {
			lost++
			t.Logf("round %d: %d acknowledged, %d in the snapshot, stats %+v", r, acked.Load(), got, st)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d rounds lost an acknowledged observation", lost, rounds)
	}
}
