package harness

import (
	"fmt"
	"math"
	"math/rand"

	"mlq/internal/budget"
	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/geom"
	"mlq/internal/pagestore"
	"mlq/internal/quadtree"
	"mlq/internal/telemetry"
)

// The global-memory-wall experiment's fixed parameters.
const (
	// memWallTotalBytes is the wall: the one budget shared by the cost
	// model and the buffer cache.
	memWallTotalBytes = 32 << 10
	// memWallPageSize is the simulated disk's page size.
	memWallPageSize = 512
	// memWallPages is the database size in pages: a 1 MiB database, so no
	// feasible split of the wall caches the phase-A working set.
	memWallPages = 2048
	// memWallHotPages is the size of phase B's migrated hot set: 20 KiB,
	// which only a cache-heavy split holds.
	memWallHotPages = 40
	// memWallReadsHot is how many hot pages each phase-B query touches.
	memWallReadsHot = 6
	// memWallCycleEvery is how many queries pass between arbitration cycles.
	memWallCycleEvery = 10
	// memWallStepBytes is the arbiter's per-cycle transfer bound.
	memWallStepBytes = 8192
	// memWallMinQueries floors the workload length. The phase-A cost
	// surface has 32×32 cells: below a few thousand queries no feasible
	// model can resolve it, every split ties on phase A, and the cell
	// comparison measures noise. The whole four-cell run stays under a
	// second; default-scale and -quick runs both land here.
	memWallMinQueries = 5000
)

// memWallSplits are the static model fractions of the wall the arbiter is
// judged against.
var memWallSplits = []float64{0.25, 0.5, 0.75}

// MemWallRow is one contender's outcome over the full two-phase workload.
type MemWallRow struct {
	// Name is "static-25" style for fixed splits, "arbiter" for the wall.
	Name string
	// ModelStart/ModelEnd are the model's byte grant entering and leaving
	// the run; CacheStart/CacheEnd likewise in pages. Static rows end where
	// they start.
	ModelStart, ModelEnd int
	CacheStart, CacheEnd int
	// IOCost is the summed physical-read cost (buffercache meter units).
	IOCost float64
	// Mispredict is the summed |predicted − actual| execution cost, same
	// units (an unanswerable prediction charges the full actual).
	Mispredict float64
	// Moves/BytesMoved are the arbiter's transfer counters (zero for
	// static rows).
	Moves      int64
	BytesMoved int64
}

// Total is the row's figure of merit: IO plus misprediction cost.
func (r MemWallRow) Total() float64 { return r.IOCost + r.Mispredict }

// MemWall runs the global-memory-wall experiment: a migrating-hot-set
// workload where no static split of one budget between the cost model and
// the buffer cache is good twice.
//
// Phase A queries uniformly over a cost surface with fine spatial structure
// (a 32×32 grid of page-read counts) against a database far larger than any
// feasible cache — every byte is worth more in the model, which needs
// ~1.4k nodes to resolve the surface. Phase B migrates: queries land in a
// narrow band with a flat cost surface, but each touches a small hot set of
// pages — every byte is worth more in the cache, which serves the whole
// phase from memory once it holds the hot set. The same seeded workload
// runs under each static split and under the arbiter (starting at 50/50,
// cycling every memWallCycleEvery queries), and the summed IO + misprediction
// cost is compared.
//
// MemWall errors if the arbiter does not beat every static split, if any
// cycle fails, or if arbitration leaks bytes (the grants must sum to the
// wall after every cycle). The arbiter's row is returned last.
func MemWall(opts Options) ([]MemWallRow, error) {
	opts = opts.withDefaults()
	opts.Queries = max(opts.Queries, memWallMinQueries)

	var rows []MemWallRow
	for _, frac := range memWallSplits {
		row, err := runMemWallCell(fmt.Sprintf("static-%d", int(frac*100+0.5)), frac, false, opts)
		if err != nil {
			return nil, fmt.Errorf("memwall: %w", err)
		}
		rows = append(rows, row)
	}
	arb, err := runMemWallCell("arbiter", 0.5, true, opts)
	if err != nil {
		return nil, fmt.Errorf("memwall: %w", err)
	}
	rows = append(rows, arb)
	for _, r := range rows[:len(rows)-1] {
		if arb.Total() >= r.Total() {
			return nil, fmt.Errorf("memwall: arbiter total %.1f does not beat %s total %.1f",
				arb.Total(), r.Name, r.Total())
		}
	}
	return rows, nil
}

// memWallReads is the phase-A cost surface: how many pages the simulated
// UDF reads at point p — a 32×32 grid of values 1..8, fine enough that a
// depth-5 quadtree (1365 nodes) is needed to resolve it exactly.
func memWallReads(p geom.Point) int {
	gx := int(p[0] * 32)
	gy := int(p[1] * 32)
	return 1 + (gx*7+gy*13)%8
}

func runMemWallCell(name string, frac float64, arbitrated bool, opts Options) (MemWallRow, error) {
	modelBytes := int(frac * float64(memWallTotalBytes))
	cachePages := (memWallTotalBytes - modelBytes) / memWallPageSize
	row := MemWallRow{Name: name, ModelStart: modelBytes, CacheStart: cachePages}

	store, err := pagestore.New(memWallPageSize)
	if err != nil {
		return row, err
	}
	payload := make([]byte, 8)
	for i := 0; i < memWallPages; i++ {
		id := store.Alloc()
		payload[0] = byte(i)
		if err := store.Write(id, payload); err != nil {
			return row, err
		}
	}
	cache, err := buffercache.New(store, cachePages)
	if err != nil {
		return row, err
	}
	mlq, err := core.NewMLQ(quadtree.Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    6,
		MemoryLimit: modelBytes,
	})
	if err != nil {
		return row, err
	}
	pub, err := core.NewPublisher(mlq, core.PublisherConfig{Events: opts.Events})
	if err != nil {
		return row, err
	}
	defer pub.Close()

	var arb *budget.Arbiter
	if arbitrated {
		// Strong hysteresis: a move must promise double its price. The
		// phase-B cost surface is noisy while the cache is mid-migration
		// (miss counts fluctuate), which inflates the model's apparent
		// marginal value; without the margin the two holders trade the
		// same bytes back and forth. The reversal guard covers 5% of the
		// run's cycles, long enough that a stale bid (the model pricing
		// phase-A structure the workload no longer visits) decays before
		// it can claw back bytes the cache just won. The 8-page cache
		// floor keeps a live ghost window through the model-hungry phase,
		// so the cache can still bid when the hot set arrives.
		guard := opts.Queries / memWallCycleEvery / 20
		arb, err = budget.New(budget.Config{StepBytes: memWallStepBytes, Hysteresis: 1, ReversalGuard: guard},
			budget.NewModelHolder("model", pub, 0),
			budget.NewCacheHolder("cache", cache, 8))
		if err != nil {
			return row, err
		}
		if opts.Telemetry != nil {
			arb.Instrument(opts.Telemetry, telemetry.L("exp", "memwall"))
			pub.Instrument(opts.Telemetry, telemetry.L("exp", "memwall"))
			cache.Instrument(opts.Telemetry, telemetry.L("exp", "memwall"))
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	half := opts.Queries / 2
	for q := 0; q < opts.Queries; q++ {
		phaseB := q >= half
		var p geom.Point
		if phaseB {
			// The migrated workload: a narrow band of the space...
			p = geom.Point{rng.Float64() * 0.125, rng.Float64()}
		} else {
			p = geom.Point{rng.Float64(), rng.Float64()}
		}
		pred, ok := pub.Predict(p)

		meter := cache.NewMeter()
		if phaseB {
			// ...whose UDF hammers a small hot set of pages, drawn at
			// random so evictions re-reference inside the ghost window and
			// the cache's capacity signal fires.
			for j := 0; j < memWallReadsHot; j++ {
				if _, err := cache.Get(pagestore.PageID(rng.Intn(memWallHotPages))); err != nil {
					return row, err
				}
			}
		} else {
			// Phase A strides across the whole database: no feasible cache
			// helps, and the read count carries the fine cost structure the
			// model is for.
			k := memWallReads(p)
			for j := 0; j < k; j++ {
				if _, err := cache.Get(pagestore.PageID((q*13 + j*977) % memWallPages)); err != nil {
					return row, err
				}
			}
		}
		actual := meter.Cost()
		row.IOCost += actual
		if ok && core.ValidCost(pred) {
			row.Mispredict += math.Abs(pred - actual)
		} else {
			row.Mispredict += actual
		}
		if err := pub.Observe(p, actual); err != nil {
			return row, err
		}
		if err := pub.Flush(); err != nil {
			return row, err
		}
		if arb != nil && (q+1)%memWallCycleEvery == 0 {
			if _, err := arb.Cycle(); err != nil {
				return row, fmt.Errorf("cycle at query %d: %w", q, err)
			}
			if got := arb.Stats().TotalBytes(); got != memWallTotalBytes {
				return row, fmt.Errorf("query %d: grants sum to %d bytes, want the %d-byte wall",
					q, got, memWallTotalBytes)
			}
		}
	}
	row.ModelEnd = pub.MemoryLimit()
	row.CacheEnd = cache.Capacity()
	if arb != nil {
		st := arb.Stats()
		row.Moves = st.Moves
		row.BytesMoved = st.BytesMoved
	}
	return row, nil
}
