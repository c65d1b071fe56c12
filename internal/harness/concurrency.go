package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/geom"
	"mlq/internal/synthetic"
	"mlq/internal/telemetry"
)

// ConcurrencyRow is one goroutine-count step of the concurrency experiment:
// prediction throughput of the mutex baseline (core.Synchronized) and of the
// epoch/snapshot publisher (core.Publisher) under an identical workload —
// N predictor goroutines with one concurrent observer feeding the model —
// plus the worst snapshot staleness observed.
type ConcurrencyRow struct {
	Goroutines int
	// MutexQPS and SnapshotQPS are predictions per second, summed over all
	// predictor goroutines.
	MutexQPS    float64
	SnapshotQPS float64
	// Speedup is SnapshotQPS / MutexQPS.
	Speedup float64
	// MaxStaleness is the largest number of accepted-but-unpublished
	// observations any predictor saw (bounded by queue capacity + batch).
	MaxStaleness int64
	// FinalEpoch is the publisher's snapshot generation count at the end.
	FinalEpoch uint64
}

// concurrencyGoroutines are the predictor parallelism steps.
var concurrencyGoroutines = []int{1, 2, 4, 8}

// concurrencyModel pre-trains one MLQ on the surface so both contenders
// start from the same realistic tree (compression pressure included).
func concurrencyModel(surface *synthetic.Surface, opts Options) (*core.MLQ, error) {
	m, err := core.NewMLQ(opts.mlqConfig(MLQE, surface.Region()))
	if err != nil {
		return nil, err
	}
	src := dist.NewUniform(surface.Region(), opts.Seed)
	for i := 0; i < opts.Queries; i++ {
		p := src.Next()
		if err := m.Observe(p, surface.Cost(p)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// measureThroughput runs n predictor goroutines, each issuing perG predictions
// against predict, while feed runs concurrently until the predictors finish.
// It returns the summed prediction throughput.
func measureThroughput(n, perG int, region geom.Rect, seed int64, predict func(geom.Point) (float64, bool), feed func(done <-chan struct{})) float64 {
	done := make(chan struct{})
	var feedWG sync.WaitGroup
	if feed != nil {
		feedWG.Add(1)
		go func() {
			defer feedWG.Done()
			feed(done)
		}()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			src := dist.NewUniform(region, seed)
			for i := 0; i < perG; i++ {
				predict(src.Next())
			}
		}(seed + int64(g)*7919)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(done)
	feedWG.Wait()
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n*perG) / elapsed.Seconds()
}

// Concurrency measures how prediction throughput scales with reader
// parallelism under a live feedback loop, comparing the two concurrency
// models the core package offers: a mutex around the tree versus lock-free
// reads of a published snapshot with batched writes. The workload per cell is
// identical — only the synchronization differs — so the ratio isolates the
// cost of lock contention on the Predict hot path.
func Concurrency(opts Options) ([]ConcurrencyRow, error) {
	opts = opts.withDefaults()
	surface, err := synthetic.Generate(synthetic.Config{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	region := surface.Region()
	// Enough work per goroutine that scheduler noise averages out, scaled
	// down by -quick/-queries the same way the accuracy experiments are.
	perG := opts.Queries * 20

	var rows []ConcurrencyRow
	for _, n := range concurrencyGoroutines {
		// Baseline: mutex-wrapped model, observer contends with readers.
		baseModel, err := concurrencyModel(surface, opts)
		if err != nil {
			return nil, err
		}
		locked := core.NewSynchronized(baseModel)
		feedSrc := dist.NewUniform(region, opts.Seed+13)
		// feedErr is written only by the feed goroutine and read after
		// measureThroughput returns (which waits for it), so no lock is needed.
		var feedErr error
		mutexQPS := measureThroughput(n, perG, region, opts.Seed+1, locked.Predict, func(done <-chan struct{}) {
			for {
				select {
				case <-done:
					return
				default:
				}
				p := feedSrc.Next()
				if err := locked.Observe(p, surface.Cost(p)); err != nil {
					feedErr = err
					return
				}
			}
		})
		if feedErr != nil {
			return nil, feedErr
		}

		// Contender: snapshot publisher, same pre-trained tree and workload.
		pubModel, err := concurrencyModel(surface, opts)
		if err != nil {
			return nil, err
		}
		pub, err := core.NewPublisher(pubModel, core.PublisherConfig{})
		if err != nil {
			return nil, err
		}
		if opts.Telemetry != nil {
			pub.Instrument(opts.Telemetry, telemetry.L("experiment", "concurrency"))
		}
		var maxStale atomic.Int64
		pubFeedSrc := dist.NewUniform(region, opts.Seed+13)
		snapshotQPS := measureThroughput(n, perG, region, opts.Seed+1, func(p geom.Point) (float64, bool) {
			s := pub.Staleness()
			for {
				cur := maxStale.Load()
				if s <= cur || maxStale.CompareAndSwap(cur, s) {
					break
				}
			}
			return pub.Predict(p)
		}, func(done <-chan struct{}) {
			for {
				select {
				case <-done:
					return
				default:
				}
				p := pubFeedSrc.Next()
				if err := pub.Observe(p, surface.Cost(p)); err != nil {
					feedErr = err
					return
				}
			}
		})
		if feedErr != nil {
			return nil, feedErr
		}
		if err := pub.Flush(); err != nil {
			return nil, err
		}
		epoch := pub.Epoch()
		if err := pub.Close(); err != nil {
			return nil, err
		}

		row := ConcurrencyRow{
			Goroutines:   n,
			MutexQPS:     mutexQPS,
			SnapshotQPS:  snapshotQPS,
			MaxStaleness: maxStale.Load(),
			FinalEpoch:   epoch,
		}
		if mutexQPS > 0 {
			row.Speedup = snapshotQPS / mutexQPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}
