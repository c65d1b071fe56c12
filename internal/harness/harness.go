// Package harness reproduces the paper's evaluation (§5): it builds the four
// cost-modeling methods (MLQ-E, MLQ-L, SH-H, SH-W) under a common memory
// budget, drives them with the paper's workloads, and regenerates each
// figure's rows — prediction accuracy (Fig. 8, 9), modeling-cost breakdown
// (Fig. 10), noise sensitivity (Fig. 11) and learning curves (Fig. 12) —
// plus the parameter ablations of the companion technical report.
package harness

import (
	"fmt"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/histogram"
	"mlq/internal/metrics"
	"mlq/internal/quadtree"
	"mlq/internal/synthetic"
	"mlq/internal/telemetry"
	"mlq/internal/workload"
)

// Method identifies one of the four compared cost-modeling methods.
type Method int

// The four methods of §5.1.
const (
	MLQE Method = iota // MLQ with eager insertion
	MLQL               // MLQ with lazy insertion
	SHH                // static equi-height histogram
	SHW                // static equi-width histogram
)

// String returns the paper's label.
func (m Method) String() string {
	switch m {
	case MLQE:
		return "MLQ-E"
	case MLQL:
		return "MLQ-L"
	case SHH:
		return "SH-H"
	case SHW:
		return "SH-W"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods returns all four methods in the paper's presentation order.
func Methods() []Method { return []Method{MLQE, MLQL, SHH, SHW} }

// SelfTuning reports whether the method learns from query feedback.
func (m Method) SelfTuning() bool { return m == MLQE || m == MLQL }

// Options carries the experiment parameters, defaulting to §5.1's values.
type Options struct {
	// MemoryLimit is the per-model budget in bytes. Default 1843 (1.8 KB).
	MemoryLimit int
	// Beta is MLQ's minimum prediction count: 1 for CPU experiments,
	// 10 for disk-IO experiments. Default 1.
	Beta int
	// Alpha is MLQ-L's threshold scale. Default 0.05.
	Alpha float64
	// Gamma is MLQ's compression fraction. Default 0.001 (0.1%).
	Gamma float64
	// Lambda is MLQ's maximum depth. Default 6.
	Lambda int
	// Queries is the test-workload length: the paper uses 5000 for
	// synthetic and 2500 for real UDFs. Default 5000.
	Queries int
	// TrainQueries is the SH a-priori training size. Zero means equal to
	// Queries (the paper trains SH on a same-distribution set).
	TrainQueries int
	// Policy selects MLQ's compression victim ordering (default: the
	// paper's SSEG; the alternatives exist for ablations).
	Policy quadtree.CompressionPolicy
	// Trials replicates accuracy experiments across independent seeds
	// and reports the mean (the paper reports single runs; replication
	// tightens the comparison). Default 1.
	Trials int
	// Seed drives all randomness.
	Seed int64

	// Telemetry, when set, receives live metrics from the experiment's
	// models, caches and feedback loops (scrapable mid-run — see
	// internal/telemetry). Nil disables all instrumentation; the
	// experiments' results are identical either way.
	Telemetry *telemetry.Registry
	// Events, when set, is the causal event spine + flight recorder the
	// experiments thread through their publishers and replica groups. Nil
	// disables recording; the experiments' results are identical either way.
	Events *events.Recorder
}

func (o Options) withDefaults() Options {
	if o.MemoryLimit == 0 {
		o.MemoryLimit = 1843
	}
	if o.Beta == 0 {
		o.Beta = 1
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if o.Gamma == 0 {
		o.Gamma = 0.001
	}
	if o.Lambda == 0 {
		o.Lambda = 6
	}
	if o.Queries == 0 {
		o.Queries = 5000
	}
	if o.TrainQueries == 0 {
		o.TrainQueries = o.Queries
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	return o
}

// replicate runs one experiment cell across opts.Trials independent seeds
// and returns the mean and standard deviation of the metric.
func replicate(opts Options, cell func(opts Options) (float64, error)) (mean, std float64, err error) {
	opts = opts.withDefaults()
	var w metrics.Welford
	for t := 0; t < opts.Trials; t++ {
		o := opts
		o.Seed = opts.Seed + int64(t)*104729 // distinct prime stride per trial
		v, err := cell(o)
		if err != nil {
			return 0, 0, err
		}
		w.Add(v)
	}
	return w.Mean(), w.StdDev(), nil
}

// mlqConfig builds the quadtree configuration for an MLQ method.
func (o Options) mlqConfig(m Method, region geom.Rect) quadtree.Config {
	strat := quadtree.Eager
	if m == MLQL {
		strat = quadtree.Lazy
	}
	return quadtree.Config{
		Region:      region,
		Strategy:    strat,
		Policy:      o.Policy,
		MaxDepth:    o.Lambda,
		Alpha:       o.Alpha,
		Beta:        o.Beta,
		Gamma:       o.Gamma,
		MemoryLimit: o.MemoryLimit,
	}
}

// NewModel constructs a method's model over the region. Static methods are
// trained a-priori on the supplied samples (ignored by the MLQ methods,
// which start empty and learn on-line — the paper's §5.1 protocol).
func NewModel(m Method, region geom.Rect, opts Options, training []histogram.Sample) (core.Model, error) {
	opts = opts.withDefaults()
	switch m {
	case MLQE, MLQL:
		return core.NewMLQ(opts.mlqConfig(m, region))
	case SHH:
		return histogram.Train(histogram.EquiHeight,
			histogram.Config{Region: region, MemoryLimit: opts.MemoryLimit}, training)
	case SHW:
		return histogram.Train(histogram.EquiWidth,
			histogram.Config{Region: region, MemoryLimit: opts.MemoryLimit}, training)
	default:
		return nil, fmt.Errorf("harness: unknown method %d", int(m))
	}
}

// instrumentModel attaches the model's quadtree (when it has one) to the
// options' telemetry registry under the given labels, and returns
// an ErrorTracker for its rolling NAE. With telemetry disabled everything is
// nil and the returned tracker is an inert nil.
func (o Options) instrumentModel(model core.Model, labels ...telemetry.Label) *telemetry.ErrorTracker {
	if o.Telemetry == nil {
		return nil
	}
	if mlq, ok := model.(*core.MLQ); ok {
		mlq.Tree().Instrument(o.Telemetry, labels...)
	}
	return telemetry.NewErrorTracker(o.Telemetry, labels...)
}

// trainingFor collects the SH a-priori training set: the paper trains the
// static methods on a query set drawn from the same distribution as the
// test set (but an independent stream).
func trainingFor(m Method, kind dist.Kind, cost synthetic.CostFunc, opts Options) ([]histogram.Sample, error) {
	if m.SelfTuning() {
		return nil, nil
	}
	// Same centroid seed as the test stream (same distribution), fresh
	// point seed (an independent sample of it).
	src, err := dist.NewSourceSeeded(kind, cost.Region(), opts.TrainQueries, opts.Seed, opts.Seed+7919)
	if err != nil {
		return nil, err
	}
	return workload.CollectSamples(src, cost, opts.TrainQueries), nil
}
