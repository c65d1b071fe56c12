// Package core defines the UDF cost-modeling API of the paper's Figure 1:
// a Model interface shared by the self-tuning MLQ methods and the static SH
// baselines, and MLQ, the quadtree model that also reports the paper's
// prediction and model-update costs (APC, AUC) from sampled timings (see
// Costs). Estimator binds a model to a UDF's argument-to-model-variable
// transformation T, and DualEstimator keeps the paper's separate CPU and
// disk-IO models.
//
// Around MLQ sit the serving and extension layers: Publisher, the one way
// to share a model between goroutines, serves lock-free predictions from
// immutable snapshots while observations are applied and replicated;
// Fallback chains models down to a constant prior; AutoRange grows the
// region of an MLQ whose argument ranges are not known in advance; and
// Categorical keeps one sub-model per value of a nominal argument.
package core

import (
	"fmt"
	"io"
	"time"

	"mlq/internal/geom"
	"mlq/internal/quadtree"
)

// Model is a UDF execution-cost model. A query optimizer calls Predict to
// estimate the cost of executing a UDF at a point in model-variable space;
// the execution engine calls Observe with the actual cost afterwards
// (the query feedback loop of Fig. 1). Static models ignore Observe.
type Model interface {
	// Predict estimates the cost at p. ok is false when the model has no
	// information at all (e.g. an untrained, empty model).
	Predict(p geom.Point) (value float64, ok bool)
	// Observe feeds back the actual cost of an execution at p.
	Observe(p geom.Point, actual float64) error
	// Name identifies the method ("MLQ-E", "MLQ-L", "SH-H", "SH-W").
	Name() string
}

// MLQ is the paper's memory-limited-quadtree cost model with the
// instrumentation needed by Experiment 2: it accumulates the wall time spent
// in prediction, insertion and compression so APC and AUC (Eq. 1, 2) can be
// reported. Prediction and insertion time are sampled (see costSampleEvery);
// compression time is the tree's exact sum. MLQ is not safe for concurrent
// use; see Publisher.
type MLQ struct {
	tree *quadtree.Tree

	pred costSampler // Predict and PredictBeta
	ins  costSampler // Observe, less the compression its sampled calls ran
}

// costSampleEvery is the cost sampling period: Predict and Observe read
// the clock on one call in 64, starting with the first. Two clock reads
// around every call were about a fifth of the CPU time of an optimizer's
// predict-and-observe step; one call in 64 costs a few hundredths of that.
const costSampleEvery = 64

// costSampler counts calls exactly and times one call in costSampleEvery.
type costSampler struct {
	calls   int64         // every call
	sampled int64         // timed calls
	elapsed time.Duration // summed over the timed calls
}

// due reports whether the next call is to be timed, counting it either way.
func (s *costSampler) due() bool {
	s.calls++
	return (s.calls-1)%costSampleEvery == 0
}

// add records one timed call.
func (s *costSampler) add(d time.Duration) {
	s.sampled++
	s.elapsed += d
}

// total estimates the time of all calls as sampled time × calls / sampled.
// The ratio estimator is unbiased for any call count; scaling each sample
// by costSampleEvery instead would overstate a model asked fewer than 64
// times.
func (s *costSampler) total() time.Duration {
	if s.sampled == 0 {
		return 0
	}
	return time.Duration(float64(s.elapsed) * float64(s.calls) / float64(s.sampled))
}

var _ Model = (*MLQ)(nil)

// NewMLQ builds an empty MLQ model. The quadtree.Config carries the paper's
// parameters: Strategy (MLQ-E or MLQ-L), λ, α, β, γ, and the memory limit.
func NewMLQ(cfg quadtree.Config) (*MLQ, error) {
	t, err := quadtree.New(cfg)
	if err != nil {
		return nil, err
	}
	return &MLQ{tree: t}, nil
}

// NewMLQFrom wraps an existing tree (e.g. one deserialized from a catalog).
func NewMLQFrom(t *quadtree.Tree) *MLQ { return &MLQ{tree: t} }

// Predict implements Model using the tree's configured β.
func (m *MLQ) Predict(p geom.Point) (float64, bool) {
	if !m.pred.due() {
		return m.tree.Predict(p)
	}
	start := time.Now()
	v, ok := m.tree.Predict(p)
	m.pred.add(time.Since(start))
	return v, ok
}

// PredictBeta predicts with an explicit β, overriding the configured one.
func (m *MLQ) PredictBeta(p geom.Point, beta int) (float64, bool) {
	if !m.pred.due() {
		return m.tree.PredictBeta(p, beta)
	}
	start := time.Now()
	v, ok := m.tree.PredictBeta(p, beta)
	m.pred.add(time.Since(start))
	return v, ok
}

// Observe implements Model: it inserts the observed execution as a new data
// point, compressing if the memory limit is exceeded. A timed call is
// charged its wall time less the compression it ran, so the samples
// estimate the insertion cost (IC) alone.
func (m *MLQ) Observe(p geom.Point, actual float64) error {
	if !m.ins.due() {
		return m.tree.Insert(p, actual)
	}
	cc := m.tree.CompressTime()
	start := time.Now()
	err := m.tree.Insert(p, actual)
	d := time.Since(start)
	m.ins.add(d - (m.tree.CompressTime() - cc))
	return err
}

// Name implements Model ("MLQ-E" or "MLQ-L").
func (m *MLQ) Name() string { return m.tree.Config().Strategy.String() }

// Tree exposes the underlying quadtree for inspection and serialization.
func (m *MLQ) Tree() *quadtree.Tree { return m.tree }

// MemoryUsed returns the model's current memory charge in bytes.
func (m *MLQ) MemoryUsed() int { return m.tree.MemoryUsed() }

// MemoryLimit returns the model's live memory budget in bytes.
func (m *MLQ) MemoryLimit() int { return m.tree.MemoryLimit() }

// Resize moves the model's live memory budget (see quadtree.Tree.Resize):
// shrinking compresses the tree down to the new limit, growing raises the
// ceiling. Resize time is deliberately not charged to the update-cost
// accounting — it is budget stewardship, not feedback.
func (m *MLQ) Resize(newLimit int) error { return m.tree.Resize(newLimit) }

// Snapshot returns an immutable copy of the model's tree, the consistent
// read a budget arbiter prices marginals against.
func (m *MLQ) Snapshot() *quadtree.Snapshot { return m.tree.Snapshot() }

// WriteTo persists the model's tree. It implements io.WriterTo.
func (m *MLQ) WriteTo(w io.Writer) (int64, error) { return m.tree.WriteTo(w) }

// ReadMLQ loads a model previously persisted with WriteTo.
func ReadMLQ(r io.Reader) (*MLQ, error) {
	t, err := quadtree.Read(r)
	if err != nil {
		return nil, err
	}
	return NewMLQFrom(t), nil
}

// Costs is the paper's modeling-cost breakdown (Experiment 2, Fig. 10):
// cumulative wall time spent predicting (PC), inserting (IC) and
// compressing (CC), plus the counter denominators. PC and IC are ratio
// estimates from one call in 64 (see costSampleEvery); CC and the counters
// are exact.
type Costs struct {
	PredictTime  time.Duration // PC
	InsertTime   time.Duration // IC (excludes compression)
	CompressTime time.Duration // CC
	Predictions  int64
	Inserts      int64
	Compressions int64
}

// UpdateTime returns the model-update cost MUC = IC + CC.
func (c Costs) UpdateTime() time.Duration { return c.InsertTime + c.CompressTime }

// APC returns the average prediction cost (Eq. 1).
func (c Costs) APC() time.Duration {
	if c.Predictions == 0 {
		return 0
	}
	return c.PredictTime / time.Duration(c.Predictions)
}

// AUC returns the average model-update cost (Eq. 2): total insertion plus
// compression time normalized by the number of predictions.
func (c Costs) AUC() time.Duration {
	if c.Predictions == 0 {
		return 0
	}
	return c.UpdateTime() / time.Duration(c.Predictions)
}

// Costs returns the model's accumulated cost breakdown.
func (m *MLQ) Costs() Costs {
	return Costs{
		PredictTime:  m.pred.total(),
		InsertTime:   m.ins.total(),
		CompressTime: m.tree.CompressTime(),
		Predictions:  m.pred.calls,
		Inserts:      m.ins.calls,
		Compressions: m.tree.Compressions(),
	}
}

// Transform is the paper's optional transformation T: it maps a UDF's input
// arguments to the (usually lower-dimensional) model variables. A nil
// Transform uses the arguments directly.
type Transform func(args []float64) geom.Point

// Estimator binds a cost model to a UDF via its transformation, giving the
// optimizer a call-shaped API: estimate from raw arguments, feed back from
// raw arguments.
type Estimator struct {
	model     Model
	transform Transform
}

// NewEstimator returns an estimator over model; transform may be nil.
func NewEstimator(model Model, transform Transform) *Estimator {
	return &Estimator{model: model, transform: transform}
}

// point applies the transformation.
func (e *Estimator) point(args []float64) geom.Point {
	if e.transform == nil {
		return geom.Point(args)
	}
	return e.transform(args)
}

// Estimate predicts the execution cost of the UDF called with args.
func (e *Estimator) Estimate(args ...float64) (float64, bool) {
	return e.model.Predict(e.point(args))
}

// Feedback records the actual cost of the UDF called with args.
func (e *Estimator) Feedback(args []float64, actual float64) error {
	return e.model.Observe(e.point(args), actual)
}

// Model returns the wrapped model.
func (e *Estimator) Model() Model { return e.model }

// DualEstimator keeps the paper's two models per UDF — one for CPU cost and
// one for disk-IO cost — typically configured with different β values
// (β=1 for CPU, β=10 for the noisier IO cost; §5.1).
type DualEstimator struct {
	CPU *Estimator
	IO  *Estimator
}

// NewDualEstimator pairs CPU and IO models under one transformation.
func NewDualEstimator(cpu, io Model, transform Transform) *DualEstimator {
	return &DualEstimator{
		CPU: NewEstimator(cpu, transform),
		IO:  NewEstimator(io, transform),
	}
}

// Estimate predicts both cost components. Either ok flag may be false for
// untrained models.
func (d *DualEstimator) Estimate(args ...float64) (cpu, io float64, cpuOK, ioOK bool) {
	cpu, cpuOK = d.CPU.Estimate(args...)
	io, ioOK = d.IO.Estimate(args...)
	return cpu, io, cpuOK, ioOK
}

// Feedback records both actual cost components.
func (d *DualEstimator) Feedback(args []float64, cpu, io float64) error {
	if err := d.CPU.Feedback(args, cpu); err != nil {
		return fmt.Errorf("core: cpu model: %w", err)
	}
	if err := d.IO.Feedback(args, io); err != nil {
		return fmt.Errorf("core: io model: %w", err)
	}
	return nil
}
