package harness

import (
	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/metrics"
	"mlq/internal/synthetic"
	"mlq/internal/workload"
)

// ShiftSeries is one method's error curve across a workload shift.
type ShiftSeries struct {
	Method Method
	Points []metrics.CurvePoint
	// Before and After are the aggregate NAE on the pre-shift and
	// post-shift halves of the workload.
	Before, After float64
}

// Shift runs the experiment behind the paper's motivation for self-tuning
// (§1): all four methods face a workload whose query clusters move halfway
// through the run. The static methods are trained a-priori on the pre-shift
// distribution — all they can ever know — while the MLQ methods keep
// learning. windows controls the resolution of the returned error curves.
func Shift(windows int, opts Options) ([]ShiftSeries, error) {
	opts = opts.withDefaults()
	if windows <= 0 {
		windows = 16
	}
	surface, err := synthetic.Generate(synthetic.Config{NumPeaks: 100, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	region := surface.Region()
	n := opts.Queries

	newShifting := func(pointSeed int64) (dist.PointSource, error) {
		phase1, err := dist.NewSourceSeeded(dist.KindGaussianRandom, region, n, opts.Seed+100, pointSeed)
		if err != nil {
			return nil, err
		}
		phase2, err := dist.NewSourceSeeded(dist.KindGaussianRandom, region, n, opts.Seed+200, pointSeed+1)
		if err != nil {
			return nil, err
		}
		return workload.NewConcat([]dist.PointSource{phase1, phase2}, []int{n / 2, n - n/2})
	}

	// Static training: an independent sample of the PRE-shift phase only.
	trainSrc, err := dist.NewSourceSeeded(dist.KindGaussianRandom, region, n, opts.Seed+100, opts.Seed+7919)
	if err != nil {
		return nil, err
	}
	training := workload.CollectSamples(trainSrc, surface, opts.TrainQueries)

	var out []ShiftSeries
	for _, m := range Methods() {
		var model core.Model
		if m.SelfTuning() {
			model, err = NewModel(m, region, opts, nil)
		} else {
			model, err = NewModel(m, region, opts, training)
		}
		if err != nil {
			return nil, err
		}
		src, err := newShifting(opts.Seed + int64(m))
		if err != nil {
			return nil, err
		}
		curve, err := metrics.NewCurve(max(n/windows, 1))
		if err != nil {
			return nil, err
		}
		var before, after metrics.NAE
		for i := 0; i < n; i++ {
			p := src.Next()
			pred, _ := model.Predict(p)
			actual := surface.Cost(p)
			curve.Add(pred, actual)
			if i < n/2 {
				before.Add(pred, actual)
			} else {
				after.Add(pred, actual)
			}
			if err := model.Observe(p, actual); err != nil {
				return nil, err
			}
		}
		curve.Flush()
		out = append(out, ShiftSeries{
			Method: m,
			Points: curve.Points(),
			Before: before.Value(),
			After:  after.Value(),
		})
	}
	return out, nil
}
