// Package engine is a miniature ORDBMS execution engine demonstrating the
// paper's Figure 1 end to end: a query with expensive UDF predicates is
// planned using the cost estimators, executed with short-circuit AND
// semantics, and every UDF execution's actual cost is fed back into its
// model — so the plans improve as the system runs.
package engine

import (
	"fmt"

	"mlq/internal/core"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/optimizer"
)

// Row is one tuple of a table; columns are numeric for simplicity.
type Row []float64

// Table is a named collection of rows.
type Table struct {
	Name string
	Rows []Row
}

// Predicate is one UDF predicate of a conjunctive WHERE clause.
type Predicate struct {
	// Name labels the UDF in results.
	Name string
	// Exec executes the UDF against a row, returning whether the row
	// passes and the measured execution cost.
	Exec func(row Row) (pass bool, cost float64)
	// Point maps a row to the UDF's model variables (the transformation
	// T applied to this invocation's arguments).
	Point func(row Row) geom.Point
	// Model predicts per-invocation cost; its feedback loop is driven by
	// the engine. Nil disables cost modeling for this predicate.
	Model core.Model
	// SelModel, when set, predicts per-invocation selectivity with the
	// same feedback machinery: every execution observes 1 (pass) or 0
	// (fail) at the row's point, so the block averages the quadtree
	// maintains are exactly regional pass rates. This lets the rank
	// ordering react to predicates whose selectivity varies across the
	// data space, not just their global average.
	SelModel core.Model
	// BreakerK overrides the circuit breakers' consecutive-rejection
	// threshold (default DefaultBreakerK).
	BreakerK int
	// CostDeadline is the per-execution cost budget, in the same units Exec
	// reports. An execution whose actual cost exceeds it is treated as
	// timed out: the row fails this predicate, TotalCost is charged the
	// deadline (the abort point — mirroring buffercache's deadline
	// semantics), and the observation is censored into the guards'
	// quarantine machinery because only a lower bound on the true cost is
	// known. Zero disables the deadline. The budget is cost units, not wall
	// time: the engine never reads a clock, so deadline behavior stays
	// deterministic and replayable.
	CostDeadline float64
	// Events, when non-nil, is the causal event spine: a recovered UDF
	// panic emits a fault event and fires the flight recorder, and the
	// predicate's guards inherit the recorder for their breaker-open and
	// censoring triggers.
	Events *events.Recorder

	evaluated int64
	passed    int64
	costSum   float64

	deadlineExceeded int64 // executions aborted by CostDeadline

	costPredictions int64 // Model.Predict calls made while planning
	selPredictions  int64 // SelModel.Predict calls made while planning

	execFailures int64 // panicking executions, recovered
	costGuard    Guard
	selGuard     Guard

	tel *predTelemetry // nil unless Instrument was called
}

// Health reports the predicate's fault-handling counters: recovered
// execution panics and the state of the two observation guards.
type Health struct {
	// ExecFailures counts UDF executions that panicked and were recovered;
	// each marked its row failed for this predicate.
	ExecFailures int64
	// DeadlineExceeded counts executions aborted by CostDeadline; each
	// marked its row failed and censored its observation.
	DeadlineExceeded int64
	// Cost is the cost-model observation guard's state.
	Cost GuardStats
	// Sel is the selectivity-model observation guard's state.
	Sel GuardStats
}

// Health returns the predicate's fault counters.
func (p *Predicate) Health() Health {
	return Health{
		ExecFailures:     p.execFailures,
		DeadlineExceeded: p.deadlineExceeded,
		Cost:             p.costGuard.Stats(),
		Sel:              p.selGuard.Stats(),
	}
}

// exec runs the UDF with panic isolation: a panicking UDF is recovered and
// reported as a failed execution instead of crashing the query.
func (p *Predicate) exec(row Row) (ok bool, cost float64, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			p.execFailures++
			p.Events.Emit(events.SubEngine, events.KindPanic, 0, uint64(p.execFailures), 0)
			p.Events.Trigger("udf-panic")
			ok, cost, failed = false, 0, true
		}
	}()
	ok, cost = p.Exec(row)
	return ok, cost, false
}

// Selectivity returns the observed pass fraction, or 0.5 before any
// evaluation (the optimizer's uninformed prior).
func (p *Predicate) Selectivity() float64 {
	if p.evaluated == 0 {
		return 0.5
	}
	return float64(p.passed) / float64(p.evaluated)
}

// MeanCost returns the observed average execution cost, or 1 before any
// evaluation.
func (p *Predicate) MeanCost() float64 {
	if p.evaluated == 0 {
		return 1
	}
	return p.costSum / float64(p.evaluated)
}

// Evaluated returns how many times the predicate has executed.
func (p *Predicate) Evaluated() int64 { return p.evaluated }

// OrderPolicy selects how the executor orders predicates.
type OrderPolicy int

const (
	// OrderAsGiven evaluates predicates in the order supplied — the
	// naive plan a cost-model-less optimizer produces.
	OrderAsGiven OrderPolicy = iota
	// OrderByRank re-plans per row: each predicate's cost is predicted
	// by its model at that row's point and predicates run in ascending
	// rank (selectivity−1)/cost. This is the paper's motivating use.
	OrderByRank
)

// String names the policy.
func (o OrderPolicy) String() string {
	switch o {
	case OrderAsGiven:
		return "as-given"
	case OrderByRank:
		return "rank"
	default:
		return fmt.Sprintf("OrderPolicy(%d)", int(o))
	}
}

// FaultStats aggregates the fault handling of one query execution.
type FaultStats struct {
	// ExecFailures counts UDF executions that panicked and were recovered.
	ExecFailures int64
	// Quarantined counts invalid observed values (NaN/Inf/negative) kept
	// away from the models.
	Quarantined int64
	// Rejected counts model Observe errors absorbed without aborting.
	Rejected int64
	// Skipped counts observations dropped by open circuit breakers.
	Skipped int64
	// DeadlineExceeded counts executions aborted by a predicate's
	// CostDeadline; their observations are censored (also counted in
	// Quarantined via the guards).
	DeadlineExceeded int64
}

// Any reports whether any fault handling happened.
func (f FaultStats) Any() bool {
	return f.ExecFailures != 0 || f.Quarantined != 0 || f.Rejected != 0 ||
		f.Skipped != 0 || f.DeadlineExceeded != 0
}

// Result summarizes one query execution.
type Result struct {
	// Selected is the number of rows passing every predicate.
	Selected int
	// Rows are the selected rows, in table order. They alias the table's
	// rows; callers must not mutate them.
	Rows []Row
	// TotalCost is the summed actual cost of every UDF execution.
	TotalCost float64
	// Evaluations counts UDF executions per predicate name, including
	// failed (panicked) ones.
	Evaluations map[string]int64
	// Faults aggregates the fault handling of this execution. A query over
	// healthy UDFs and models reports all zeros.
	Faults FaultStats
}

// ExecuteQuery runs SELECT * FROM table WHERE p1 AND p2 AND ... with the
// given ordering policy, feeding every actual UDF cost back into the
// predicate's model.
//
// The feedback loop is hardened for long-lived operation: a panicking UDF
// marks its row failed for that predicate (counted in Health and
// Result.Faults) instead of crashing the query; invalid observed costs are
// quarantined before reaching any model; model Observe errors are absorbed
// and counted, with a per-predicate circuit breaker that stops feeding a
// model after K consecutive rejections (the rank ordering then falls back to
// the MeanCost/Selectivity running averages). ExecuteQuery only returns an
// error for malformed input, never for UDF or model misbehavior.
func ExecuteQuery(table *Table, preds []*Predicate, policy OrderPolicy) (Result, error) {
	if table == nil {
		return Result{}, fmt.Errorf("engine: table is required")
	}
	for i, p := range preds {
		if p == nil || p.Exec == nil {
			return Result{}, fmt.Errorf("engine: predicate %d is missing its Exec", i)
		}
		if p.BreakerK > 0 {
			p.costGuard.K = p.BreakerK
			p.selGuard.K = p.BreakerK
		}
		if p.Events != nil {
			p.costGuard.Events = p.Events
			p.selGuard.Events = p.Events
		}
	}
	res := Result{Evaluations: make(map[string]int64, len(preds))}
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	cands := make([]optimizer.Candidate, len(preds))
	for _, row := range table.Rows {
		if policy == OrderByRank {
			for i, p := range preds {
				cost := p.MeanCost()
				sel := p.Selectivity()
				if p.Point != nil {
					pt := p.Point(row)
					// An open breaker means the model is cut off from
					// feedback and stale; plan from the running averages
					// instead. Predictions are also sanitized — a model
					// emitting NaN/Inf/negative must not poison the rank.
					if p.Model != nil && !p.costGuard.Open() {
						p.costPredictions++
						if v, ok := p.Model.Predict(pt); ok && core.ValidCost(v) {
							cost = v
						}
					}
					if p.SelModel != nil && !p.selGuard.Open() {
						p.selPredictions++
						if v, ok := p.SelModel.Predict(pt); ok && core.ValidCost(v) {
							sel = clamp01(v)
						}
					}
				}
				cands[i] = optimizer.Candidate{Cost: cost, Selectivity: sel}
			}
			order = optimizer.Order(cands)
		}
		pass := true
		for _, i := range order {
			p := preds[i]
			ok, cost, failed := p.exec(row)
			res.Evaluations[p.Name]++
			if failed {
				// The UDF panicked: the row fails this predicate, nothing
				// is observed, and the query carries on.
				res.Faults.ExecFailures++
				if p.tel != nil {
					p.tel.publish(p)
				}
				pass = false
				break
			}
			if p.CostDeadline > 0 && cost > p.CostDeadline {
				// The UDF overran its budget: in a real engine the
				// invocation would have been aborted at the deadline, so
				// the row fails, exactly the budget is charged (the abort
				// point, not the never-observed full cost), and the guards
				// censor the observation — only a lower bound on the true
				// cost is known, and feeding a truncated value would bias
				// the model low.
				p.deadlineExceeded++
				res.Faults.DeadlineExceeded++
				res.TotalCost += p.CostDeadline
				if p.Point != nil {
					if p.Model != nil {
						p.costGuard.Censor()
					}
					if p.SelModel != nil {
						p.selGuard.Censor()
					}
				}
				if p.tel != nil {
					p.tel.publish(p)
				}
				pass = false
				break
			}
			p.evaluated++
			p.costSum += cost
			if ok {
				p.passed++
			}
			res.TotalCost += cost
			if p.Point != nil {
				pt := p.Point(row)
				if p.Model != nil {
					res.Faults.count(p.costGuard.Feed(p.Model, pt, cost))
				}
				if p.SelModel != nil {
					outcome := 0.0
					if ok {
						outcome = 1
					}
					res.Faults.count(p.selGuard.Feed(p.SelModel, pt, outcome))
				}
			}
			if p.tel != nil {
				p.tel.publish(p)
			}
			if !ok {
				pass = false
				break
			}
		}
		if pass {
			res.Selected++
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// count folds one guard outcome into the aggregate.
func (f *FaultStats) count(r FeedResult) {
	switch r {
	case FedQuarantined:
		f.Quarantined++
	case FedRejected:
		f.Rejected++
	case FedSkipped:
		f.Skipped++
	}
}
