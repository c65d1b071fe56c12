package telemetry

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentRegistryHammer drives every registry mutation path from
// concurrent goroutines while scrapers render both expositions. Run under
// -race (the CI telemetry job does) this pins the concurrency contract:
// registration, publication and exposition never race.
func TestConcurrentRegistryHammer(t *testing.T) {
	r := New()

	const (
		writers = 4
		iters   = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := []Label{L("worker", string(rune('a'+w)))}
			for i := 0; i < iters; i++ {
				r.Counter("mlq_test_hammer_total", "h", labels...).Inc()
				r.Gauge("mlq_test_hammer_depth", "h", labels...).Set(float64(i))
				r.Histogram("mlq_test_hammer_seconds", "h", labels...).Observe(float64(i) * 1e-3)
				// Re-register the func series every iteration: the
				// latest-generation-wins path must not race rendering.
				v := float64(i)
				r.GaugeFunc("mlq_test_hammer_live", "h", func() float64 { return v }, labels...)
				r.Span("hammer", labels...).Observe(float64(i) * 1e-6)
				et := NewErrorTracker(r, labels...)
				et.Observe(float64(i), float64(i+1))
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if err := r.WriteJSON(io.Discard); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var total int64
	for w := 0; w < writers; w++ {
		total += r.Counter("mlq_test_hammer_total", "h", L("worker", string(rune('a'+w)))).Value()
	}
	if total != writers*iters {
		t.Errorf("hammer counter total = %d, want %d", total, writers*iters)
	}
}

// TestConcurrentHistogram checks the lock-free sum/count paths add up.
func TestConcurrentHistogram(t *testing.T) {
	var h Histogram
	const (
		goroutines = 8
		per        = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Errorf("Count = %d, want %d", got, goroutines*per)
	}
	if got := h.Sum(); got != goroutines*per*0.5 {
		t.Errorf("Sum = %g, want %g", got, float64(goroutines*per)*0.5)
	}
}
