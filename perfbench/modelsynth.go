package main

import (
	"fmt"
	"runtime"
	"time"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/geom"
	"mlq/internal/metrics"
	"mlq/internal/quadtree"
	"mlq/internal/synthetic"
)

// model-synth is the cost model alone, as a query optimizer uses it: each
// op is one planning step of msPlan predictions plus one observation of the
// chosen plan's true cost, on Gaussian-sequential points whose hot region
// drifts, so compression keeps firing in a tree held at its budget. Step i
// predicts stream points i..i+msPlan-1 and observes point i, so the stream
// advances one point per step and a run does not revisit a region.
const (
	msPlan       = 16                 // predictions per planning step
	msBudget     = 1 << 20            // model budget in bytes: ~52k nodes, an arena larger than a 2 MiB L2
	msPeaks      = 100                // peaks of the synthetic cost surface
	msMeasure    = 1_500_000          // steps measured per phase
	msPool       = msMeasure + msPlan // pre-generated stream points; cycled after the measured steps
	msCentroids  = 128                // hot regions the pool drifts through
	msTrain      = 100_000            // uniform points available to set-up
	msPastBudget = 8192               // set-up inserts after the first compression
	msDetOps     = 50_000             // deterministic counts cover the first msDetOps steps
	// The cost surface is a fixed fixture, as loop-real's databases are;
	// --seed draws the points the model is trained, queried and fed on.
	surfaceSeed  = 20040315
	centroidSeed = 20040317
)

// synthSurface is the paper's 4-D synthetic cost surface.
func synthSurface() (*synthetic.Surface, error) {
	return synthetic.Generate(synthetic.Config{NumPeaks: msPeaks, Seed: surfaceSeed})
}

// pointPool is pre-generated input: points, stored flat, with their true
// costs.
type pointPool struct {
	dims   int
	coords []float64
	cost   []float64
}

func newPointPool(src dist.PointSource, surf *synthetic.Surface, n int) pointPool {
	dims := surf.Region().Dims()
	p := pointPool{dims: dims, coords: make([]float64, 0, n*dims), cost: make([]float64, n)}
	for i := range p.cost {
		pt := src.Next()
		p.coords = append(p.coords, pt...)
		p.cost[i] = surf.Cost(pt)
	}
	return p
}

func (p pointPool) len() int { return len(p.cost) }

// at returns point i as a view into the pool.
func (p pointPool) at(i int) geom.Point {
	return p.coords[i*p.dims : (i+1)*p.dims : (i+1)*p.dims]
}

// gaussSeqPool draws n Gaussian-sequential points over c hot regions. The
// sequence of hot regions is part of the fixed workload; the seed draws the
// points inside them.
func gaussSeqPool(surf *synthetic.Surface, n, c int, seed int64) (pointPool, error) {
	src, err := dist.NewGaussianSequentialSeeded(surf.Region(), c, n, 0.05, centroidSeed, seed)
	if err != nil {
		return pointPool{}, err
	}
	return newPointPool(src, surf, n), nil
}

func runModelSynth(o options) (result, error) {
	surf, err := synthSurface()
	if err != nil {
		return result{}, err
	}
	train := uniformPool(surf, msTrain, o.seed+2)
	steps, err := gaussSeqPool(surf, msPool, msCentroids, o.seed+3)
	if err != nil {
		return result{}, err
	}

	build := func() (*core.MLQ, error) {
		m, err := core.NewMLQ(quadtree.Config{Region: surf.Region(), Strategy: quadtree.Lazy, MemoryLimit: msBudget})
		if err != nil {
			return nil, err
		}
		// Train until the tree has hit its budget and kept compressing for
		// msPastBudget more inserts.
		past := -1
		for i := 0; i < train.len(); i++ {
			if err := m.Observe(train.at(i), train.cost[i]); err != nil {
				return nil, fmt.Errorf("pre-training: %w", err)
			}
			if past < 0 && m.Tree().Compressions() > 0 {
				past = 0
			}
			if past >= 0 {
				if past++; past == msPastBudget {
					return m, nil
				}
			}
		}
		return nil, fmt.Errorf("pre-training did not run %d inserts past the %d-byte budget", msPastBudget, msBudget)
	}
	mlq, setupS, err := medianSetup(3, build, func(*core.MLQ) error { return nil })
	if err != nil {
		return result{}, err
	}
	tree := mlq.Tree()

	var (
		nae metrics.NAE
		// det holds counts over the first msDetOps steps; compressTime
		// is the wall time of those steps' compressions, the same ones on
		// every run of a seed.
		det struct {
			nae                          metrics.NAE
			compressions, removed, nodes int64
			compressTime                 time.Duration
		}
		start = struct {
			compressions, removed int64
			compressTime          time.Duration
		}{tree.Compressions(), tree.RemovedNodes(), tree.CompressTime()}
		observed = make([]int64, 0, msMeasure)
		tr       *tracer
		preds    [msPlan]float64
	)
	op := func(i int64) bool {
		base := int(i % (msPool - msPlan))
		ok := true
		var root int32
		var t0 time.Time
		if tr != nil {
			root = tr.begin(spStep, 0)
			t0 = time.Now()
		}
		for k := range preds {
			v, good := mlq.Predict(steps.at(base + k))
			preds[k] = v
			ok = ok && good
		}
		if tr != nil {
			tr.record(spPredictBlock, root, t0, time.Now())
		}
		actual := steps.cost[base]
		nae.Add(preds[0], actual)
		var obs int32
		if tr != nil {
			obs = tr.begin(spModelObserve, root)
		}
		o0 := time.Now()
		err := mlq.Observe(steps.at(base), actual)
		observed = append(observed, int64(time.Since(o0)))
		if tr != nil {
			tr.end(obs)
			tr.end(root)
		}
		if i == msDetOps-1 {
			det.nae = nae
			det.compressions = tree.Compressions() - start.compressions
			det.removed = tree.RemovedNodes() - start.removed
			det.compressTime = tree.CompressTime() - start.compressTime
			det.nodes = int64(tree.NodeCount())
		}
		return ok && err == nil && mlq.MemoryUsed() <= msBudget
	}

	untracedDur, tracedDur := o.phaseSplit()
	observedLen := func() int { return len(observed) }
	a := runPhase(untracedDur, msMeasure, 0, op, observedLen, nil)
	attempted, failed := a.run(), a.failed
	m := map[string]metric{}
	if !o.trace {
		m["setup_s"] = metric{setupS, "s"}
		m["ops_per_s"] = metric{a.rate(1), "1/s"}
		m["op_p50_us"] = metric{percentile(a.lat, 0.5, time.Microsecond), "us"}
		m["visible_p50_ms"] = metric{blockP50(observed[:a.extEnd()], obsBlock, time.Millisecond), "ms"}
		m["cpu_ms_per_kop"] = metric{a.cpuPerKop(1), "ms"}
		m["nae"] = metric{det.nae.Value(), "ratio"}
		a.lat, observed = nil, nil
		m["heap_mb"] = metric{heapMiB(), "MiB"}
		runtime.KeepAlive(mlq)
	} else {
		rec := newTracer()
		b := runPhase(tracedDur, msMeasure, a.run(), op, nil, tracedSlices(rec, func(t *tracer) { tr = t }))
		attempted += b.run()
		failed += b.failed
		spans := rec.reduce()
		m["quadtree.predict_ns"] = metric{mean(spans["model.predict_block"].dur) / msPlan, "ns"}
		m["quadtree.observe_us_p50"] = metric{percentile(spans["model.observe"].dur, 0.5, time.Microsecond), "us"}
		m["quadtree.observe_us_p99"] = metric{percentile(spans["model.observe"].dur, 0.99, time.Microsecond), "us"}
		m["quadtree.compress_ms"] = metric{float64(det.compressTime) / float64(time.Millisecond), "ms"}
		m["quadtree.compressions"] = metric{float64(det.compressions), "count"}
		m["quadtree.removed_nodes"] = metric{float64(det.removed), "count"}
		m["quadtree.nodes"] = metric{float64(det.nodes), "count"}
		m["client.op_p99_us"] = metric{a.sliceP99(a.lat, opRange, time.Microsecond), "us"}
		m["client.op_samples"] = metric{float64(len(a.lat)), "count"}
		a.runtimeMetricsOf(m, 1)
		if err := finishTrace(rec, o, "model-synth", b, m); err != nil {
			return result{}, err
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: completeLayers(m, o.trace)}, nil
}

// uniformPool draws n uniform points with their true costs.
func uniformPool(surf *synthetic.Surface, n int, seed int64) pointPool {
	return newPointPool(dist.NewUniform(surf.Region(), seed), surf, n)
}
