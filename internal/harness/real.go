package harness

import (
	"fmt"
	"runtime"
	"time"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/histogram"
	"mlq/internal/metrics"
	"mlq/internal/udf"
)

// CostKind selects which execution-cost component an experiment models.
type CostKind int

// The two cost components of §3.
const (
	// CPUCost is the deterministic work-unit count (ec_CPU).
	CPUCost CostKind = iota
	// IOCost is the physical page-read count (ec_IO), noisy due to the
	// buffer cache.
	IOCost
)

// String names the component.
func (c CostKind) String() string {
	if c == IOCost {
		return "IO"
	}
	return "CPU"
}

// pick selects the component from a UDF execution's measured pair.
func (c CostKind) pick(cpu, io float64) float64 {
	if c == IOCost {
		return io
	}
	return cpu
}

// realTraining executes the UDF on an a-priori training workload and
// collects (point, cost) samples for the static methods — the paper's SH
// training protocol applied to real UDFs.
func realTraining(u udf.UDF, kind dist.Kind, ck CostKind, opts Options) ([]histogram.Sample, error) {
	src, err := dist.NewSourceSeeded(kind, u.Region(), opts.TrainQueries, opts.Seed, opts.Seed+7919)
	if err != nil {
		return nil, err
	}
	samples := make([]histogram.Sample, 0, opts.TrainQueries)
	for i := 0; i < opts.TrainQueries; i++ {
		p := src.Next()
		cpu, io, err := u.Execute(p)
		if err != nil {
			return nil, fmt.Errorf("harness: training %s: %w", u.Name(), err)
		}
		samples = append(samples, histogram.Sample{Point: p, Value: ck.pick(cpu, io)})
	}
	return samples, nil
}

// RunRealNAE runs one (method, UDF, distribution, cost component) cell of
// the real-UDF accuracy experiments: every test query is executed for real
// through the engine's buffer cache, predicted beforehand and fed back
// afterwards. Accuracy is the NAE against the measured cost.
func RunRealNAE(m Method, u udf.UDF, kind dist.Kind, ck CostKind, opts Options) (float64, error) {
	opts = opts.withDefaults()
	var training []histogram.Sample
	if !m.SelfTuning() {
		var err error
		training, err = realTraining(u, kind, ck, opts)
		if err != nil {
			return 0, err
		}
	}
	model, err := NewModel(m, u.Region(), opts, training)
	if err != nil {
		return 0, err
	}
	src, err := dist.NewSourceSeeded(kind, u.Region(), opts.Queries, opts.Seed, opts.Seed+1)
	if err != nil {
		return 0, err
	}
	var nae metrics.NAE
	for i := 0; i < opts.Queries; i++ {
		p := src.Next()
		pred, _ := model.Predict(p)
		cpu, io, err := u.Execute(p)
		if err != nil {
			return 0, fmt.Errorf("harness: executing %s: %w", u.Name(), err)
		}
		actual := ck.pick(cpu, io)
		nae.Add(pred, actual)
		if err := model.Observe(p, actual); err != nil {
			return 0, err
		}
	}
	return nae.Value(), nil
}

// Fig9Row is one group of Figure 9 (or 11(a) for IO): the NAE of every
// method for one real UDF under one query distribution.
type Fig9Row struct {
	UDF  string
	Dist dist.Kind
	NAE  map[Method]float64
}

// Fig9 reproduces Figure 9: prediction accuracy of the real UDFs' CPU cost
// across all query distributions and methods.
func Fig9(udfs []udf.UDF, opts Options) ([]Fig9Row, error) {
	return realAccuracyGrid(udfs, CPUCost, opts)
}

// Fig11a reproduces Figure 11(a): prediction accuracy of the real UDFs'
// disk-IO cost, whose noise comes from the buffer cache. The paper's IO
// experiments use β=10.
func Fig11a(udfs []udf.UDF, opts Options) ([]Fig9Row, error) {
	opts = opts.withDefaults()
	if opts.Beta == 1 {
		opts.Beta = 10
	}
	return realAccuracyGrid(udfs, IOCost, opts)
}

func realAccuracyGrid(udfs []udf.UDF, ck CostKind, opts Options) ([]Fig9Row, error) {
	opts = opts.withDefaults()
	var rows []Fig9Row
	for _, u := range udfs {
		for _, kind := range dist.Kinds() {
			row := Fig9Row{UDF: u.Name(), Dist: kind, NAE: make(map[Method]float64, 4)}
			for _, m := range Methods() {
				v, err := RunRealNAE(m, u, kind, ck, opts)
				if err != nil {
					return nil, fmt.Errorf("%s %v %v: %w", u.Name(), kind, m, err)
				}
				row.NAE[m] = v
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig10Real reproduces Figure 10(a): the modeling-cost breakdown of MLQ-E
// and MLQ-L on a real UDF (the paper shows WIN) under uniform queries,
// normalized by the UDF's actual total execution time.
func Fig10Real(u udf.UDF, opts Options) ([]CostBreakdown, error) {
	opts = opts.withDefaults()
	var out []CostBreakdown
	for _, m := range []Method{MLQE, MLQL} {
		model, err := NewModel(m, u.Region(), opts, nil)
		if err != nil {
			return nil, err
		}
		mlq := model.(*core.MLQ)
		src := dist.NewUniform(u.Region(), opts.Seed)
		var totalExec time.Duration
		// Collect first, so that a collection of the garbage left by
		// building the substrate or by the previous method does not run
		// inside the few timed model calls, each of which stands for 64.
		runtime.GC()
		for i := 0; i < opts.Queries; i++ {
			p := src.Next()
			mlq.Predict(p)
			start := time.Now()
			cpu, io, err := u.Execute(p)
			totalExec += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("harness: executing %s: %w", u.Name(), err)
			}
			_ = io
			if err := mlq.Observe(p, cpu); err != nil {
				return nil, err
			}
		}
		out = append(out, breakdownFrom(u.Name(), m, mlq.Costs(), totalExec))
	}
	return out, nil
}

// Fig12Real reproduces the real-UDF panels of Figure 12: learning curves of
// MLQ-E and MLQ-L on one UDF's CPU cost under uniform queries.
func Fig12Real(u udf.UDF, windows int, opts Options) ([]Fig12Series, error) {
	opts = opts.withDefaults()
	if windows <= 0 {
		windows = 25
	}
	var out []Fig12Series
	for _, m := range []Method{MLQE, MLQL} {
		model, err := NewModel(m, u.Region(), opts, nil)
		if err != nil {
			return nil, err
		}
		curve, err := metrics.NewCurve(max(opts.Queries/windows, 1))
		if err != nil {
			return nil, err
		}
		src := dist.NewUniform(u.Region(), opts.Seed)
		for i := 0; i < opts.Queries; i++ {
			p := src.Next()
			pred, _ := model.Predict(p)
			cpu, _, err := u.Execute(p)
			if err != nil {
				return nil, fmt.Errorf("harness: executing %s: %w", u.Name(), err)
			}
			curve.Add(pred, cpu)
			if err := model.Observe(p, cpu); err != nil {
				return nil, err
			}
		}
		curve.Flush()
		out = append(out, Fig12Series{Workload: u.Name(), Method: m, Points: curve.Points()})
	}
	return out, nil
}
