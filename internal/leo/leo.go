// Package leo implements a LEO-style learning optimizer component (Stillger
// et al., VLDB 2001), the second self-tuning system the paper discusses
// (§2.2). LEO logs each execution's estimated and actual statistics,
// computes adjustment factors in the background, and applies them to future
// estimates.
//
// Here the "statistic" is UDF execution cost: the model wraps a base
// estimator (by default the running global average), keeps a log of
// (point, estimate, actual) records, and periodically folds the log into an
// adjustment table keyed by a coarse grid over the model-variable space.
// Predictions multiply the base estimate by the cell's learned ratio.
//
// The paper's claim — "MLQ is more storage efficient than LEO since it uses
// a quadtree to store summary information ... and applies the feedback
// information directly" (§2.2) — is quantified by harness.LEOComparison:
// LEO must retain a log between analysis passes, so its working-set memory
// for equal accuracy is a multiple of MLQ's.
package leo

import (
	"fmt"
	"math"

	"mlq/internal/geom"
)

// Config parameterizes the LEO-style model.
type Config struct {
	// Region is the model-variable space.
	Region geom.Rect
	// GridSize is the per-dimension resolution of the adjustment table.
	// Default 3 (comparable to SH-W's bucket count at 1.8 KB).
	GridSize int
	// AnalyzeEvery folds the log into the adjustment table after this
	// many logged executions (LEO's background analysis). Default 200.
	AnalyzeEvery int
}

func (c Config) withDefaults() Config {
	if c.GridSize == 0 {
		c.GridSize = 3
	}
	if c.AnalyzeEvery == 0 {
		c.AnalyzeEvery = 200
	}
	return c
}

// record is one logged execution: LEO keeps the full (plan estimate, actual)
// pair until the next analysis pass.
type record struct {
	point    geom.Point
	estimate float64
	actual   float64
}

// Model is a LEO-style self-tuning cost estimator. It satisfies core.Model.
type Model struct {
	cfg Config

	// Base estimator state: running global average.
	sum   float64
	count int64

	// Adjustment table: per grid cell, the learned ratio actual/estimate
	// (1 = no adjustment) and how many records contributed.
	ratio   []float64
	weight  []int64
	log     []record
	logged  int64
	analyze int64 // analysis passes run
}

// New returns an empty LEO-style model.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Region.Dims() == 0 {
		return nil, fmt.Errorf("leo: Config.Region must be set")
	}
	if cfg.GridSize < 1 || cfg.AnalyzeEvery < 1 {
		return nil, fmt.Errorf("leo: GridSize and AnalyzeEvery must be >= 1")
	}
	cells := 1
	for i := 0; i < cfg.Region.Dims(); i++ {
		cells *= cfg.GridSize
		if cells > 1<<24 {
			return nil, fmt.Errorf("leo: adjustment table too large (%d^%d cells)", cfg.GridSize, cfg.Region.Dims())
		}
	}
	m := &Model{
		cfg:    cfg,
		ratio:  make([]float64, cells),
		weight: make([]int64, cells),
	}
	for i := range m.ratio {
		m.ratio[i] = 1
	}
	return m, nil
}

// cell maps a point to its adjustment-table index.
func (m *Model) cell(p geom.Point) int {
	var buf [8]float64
	var q geom.Point
	if n := len(p); n <= len(buf) {
		q = buf[:n]
	} else {
		q = make(geom.Point, n)
	}
	m.cfg.Region.ClampInto(q, p)
	idx := 0
	for dim := len(q) - 1; dim >= 0; dim-- {
		lo, hi := m.cfg.Region.Lo[dim], m.cfg.Region.Hi[dim]
		i := int(float64(m.cfg.GridSize) * (q[dim] - lo) / (hi - lo))
		if i < 0 {
			i = 0
		}
		if i >= m.cfg.GridSize {
			i = m.cfg.GridSize - 1
		}
		idx = idx*m.cfg.GridSize + i
	}
	return idx
}

// base returns the base estimator's prediction (the running global mean).
func (m *Model) base() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Predict implements core.Model: base estimate times the cell's adjustment.
func (m *Model) Predict(p geom.Point) (float64, bool) {
	if m.count == 0 {
		return 0, false
	}
	v := m.base() * m.ratio[m.cell(p)]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Observe rejects non-finite costs, so a non-finite product can
		// only come from a corrupted adjustment ratio; report "no
		// information" instead of poisoning the plan.
		return 0, false
	}
	return v, true
}

// Observe implements core.Model: it logs the execution (with the estimate
// the optimizer would have used) and periodically runs the analysis pass.
func (m *Model) Observe(p geom.Point, actual float64) error {
	if len(p) != m.cfg.Region.Dims() {
		return fmt.Errorf("leo: point has %d dims, model has %d", len(p), m.cfg.Region.Dims())
	}
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return fmt.Errorf("leo: cost must be finite, got %g", actual)
	}
	est, _ := m.Predict(p)
	m.log = append(m.log, record{point: m.cfg.Region.Clamp(p), estimate: est, actual: actual})
	m.logged++
	m.sum += actual
	m.count++
	if len(m.log) >= m.cfg.AnalyzeEvery {
		m.runAnalysis()
	}
	return nil
}

// runAnalysis is LEO's background pass: compare logged estimates against
// actuals per cell and update the adjustment ratios, then clear the log.
func (m *Model) runAnalysis() {
	type agg struct {
		actual float64
		n      int64
	}
	perCell := make(map[int]*agg)
	for _, r := range m.log {
		c := m.cell(r.point)
		a := perCell[c]
		if a == nil {
			a = &agg{}
			perCell[c] = a
		}
		a.actual += r.actual
		a.n++
	}
	base := m.base()
	for c, a := range perCell {
		if base <= 0 {
			continue
		}
		newRatio := (a.actual / float64(a.n)) / base
		// Blend with the existing ratio in proportion to evidence.
		w := m.weight[c]
		m.ratio[c] = (m.ratio[c]*float64(w) + newRatio*float64(a.n)) / float64(w+a.n)
		m.weight[c] += a.n
	}
	m.log = m.log[:0]
	m.analyze++
}

// Name implements core.Model.
func (m *Model) Name() string { return "LEO" }

// MemoryUsed returns the model's current memory charge: the adjustment
// table (ratio 8 + weight 8 per cell) plus the retained log (8 bytes per
// stored float: d coordinates + estimate + actual per record). The log is
// what makes LEO's working set larger than MLQ's at equal accuracy.
func (m *Model) MemoryUsed() int {
	table := len(m.ratio) * 16
	rec := (m.cfg.Region.Dims() + 2) * 8
	return table + len(m.log)*rec
}

// PeakLogRecords returns the log capacity implied by AnalyzeEvery (the
// records retained just before an analysis pass).
func (m *Model) PeakLogRecords() int { return m.cfg.AnalyzeEvery }

// PeakMemory returns the model's worst-case memory: table plus a full log.
func (m *Model) PeakMemory() int {
	rec := (m.cfg.Region.Dims() + 2) * 8
	return len(m.ratio)*16 + m.cfg.AnalyzeEvery*rec
}

// Analyses returns how many background analysis passes have run.
func (m *Model) Analyses() int64 { return m.analyze }
