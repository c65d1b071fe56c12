package engine

import "mlq/internal/telemetry"

// GuardMetrics mirrors one Guard's counters into a telemetry registry under
// mlq_engine_*. A model="cost"/"sel" label conventionally distinguishes the
// two guards of a predicate; harnesses driving a Guard directly (e.g. the
// chaos experiment) reuse the same series names with their own labels.
// Publishing a nil *GuardMetrics is a no-op.
type GuardMetrics struct {
	fed         *telemetry.Counter
	quarantined *telemetry.Counter
	rejected    *telemetry.Counter
	skipped     *telemetry.Counter
	censored    *telemetry.Counter
	trips       *telemetry.Counter
	open        *telemetry.Gauge
}

// NewGuardMetrics registers the guard series under the given labels. A nil
// registry returns nil (publishing stays a no-op).
func NewGuardMetrics(reg *telemetry.Registry, labels ...telemetry.Label) *GuardMetrics {
	if reg == nil {
		return nil
	}
	return &GuardMetrics{
		fed:         reg.Counter("mlq_engine_observations_total", "observations accepted by the model", labels...),
		quarantined: reg.Counter("mlq_engine_quarantined_total", "invalid observed values (NaN/Inf/negative) stopped before the model", labels...),
		rejected:    reg.Counter("mlq_engine_rejected_observations_total", "model Observe errors absorbed by the guard", labels...),
		skipped:     reg.Counter("mlq_engine_skipped_observations_total", "observations dropped while the breaker was open", labels...),
		censored:    reg.Counter("mlq_engine_censored_observations_total", "deadline-aborted executions whose cost is known only as a lower bound", labels...),
		trips:       reg.Counter("mlq_engine_breaker_trips_total", "times the circuit breaker opened", labels...),
		open:        reg.Gauge("mlq_engine_breaker_open", "1 while the breaker is open and the planner falls back to running averages", labels...),
	}
}

// Publish mirrors a guard's cumulative stats. Must run on the goroutine that
// owns the guard (Guard is not concurrency-safe; the metrics are).
func (gt *GuardMetrics) Publish(s GuardStats) {
	if gt == nil {
		return
	}
	gt.fed.Store(s.Fed)
	gt.quarantined.Store(s.Quarantined)
	gt.rejected.Store(s.Rejected)
	gt.skipped.Store(s.Skipped)
	gt.censored.Store(s.Censored)
	gt.trips.Store(s.Trips)
	if s.Open {
		gt.open.Set(1)
	} else {
		gt.open.Set(0)
	}
}

// predTelemetry mirrors a predicate's execution and fault-handling counters
// into the registry. The predicate publishes after every execution from the
// query's goroutine; scrapes read the atomic metric values only.
type predTelemetry struct {
	evaluations  *telemetry.Counter
	passed       *telemetry.Counter
	execFailures *telemetry.Counter
	deadlines    *telemetry.Counter
	costPreds    *telemetry.Counter
	selPreds     *telemetry.Counter

	meanCost    *telemetry.Gauge
	selectivity *telemetry.Gauge

	cost *GuardMetrics
	sel  *GuardMetrics
}

// Instrument registers the predicate's metrics under mlq_engine_* labeled
// udf=<Name> (plus any extra labels) and begins publishing them after every
// execution. Guard metrics carry an additional model="cost"/"sel" label.
// Passing a nil registry detaches the predicate from telemetry again.
//
// The rank loop's Predict calls stay free of telemetry work; predictions are
// counted with plain int64 increments and only mirrored into atomics after
// the (much more expensive) UDF execution.
func (p *Predicate) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		p.tel = nil
		return
	}
	base := append([]telemetry.Label{telemetry.L("udf", p.Name)}, labels...)
	costL := append([]telemetry.Label{telemetry.L("model", "cost")}, base...)
	selL := append([]telemetry.Label{telemetry.L("model", "sel")}, base...)
	tel := &predTelemetry{
		evaluations:  reg.Counter("mlq_engine_evaluations_total", "UDF executions, including recovered panics", base...),
		passed:       reg.Counter("mlq_engine_passed_total", "rows that passed the predicate", base...),
		execFailures: reg.Counter("mlq_engine_exec_failures_total", "UDF executions that panicked and were recovered", base...),
		deadlines:    reg.Counter("mlq_engine_deadline_exceeded_total", "UDF executions aborted by the predicate's cost deadline", base...),
		costPreds:    reg.Counter("mlq_engine_predictions_total", "model Predict calls made while planning", costL...),
		selPreds:     reg.Counter("mlq_engine_predictions_total", "model Predict calls made while planning", selL...),

		meanCost:    reg.Gauge("mlq_engine_mean_cost", "observed average execution cost", base...),
		selectivity: reg.Gauge("mlq_engine_selectivity", "observed pass fraction", base...),

		cost: NewGuardMetrics(reg, costL...),
		sel:  NewGuardMetrics(reg, selL...),
	}
	p.tel = tel
	tel.publish(p)
}

// publish mirrors the predicate's current counters into the registry. Must be
// called from the goroutine executing the query.
func (tel *predTelemetry) publish(p *Predicate) {
	tel.evaluations.Store(p.evaluated)
	tel.passed.Store(p.passed)
	tel.execFailures.Store(p.execFailures)
	tel.deadlines.Store(p.deadlineExceeded)
	tel.costPreds.Store(p.costPredictions)
	tel.selPreds.Store(p.selPredictions)
	tel.meanCost.Set(p.MeanCost())
	tel.selectivity.Set(p.Selectivity())
	tel.cost.Publish(p.costGuard.Stats())
	tel.sel.Publish(p.selGuard.Stats())
}
