package engine

import (
	"errors"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/telemetry"
)

// TestPredicateInstrumentPublishes runs a ranked query over an instrumented
// predicate and checks the mlq_engine_* series match the predicate's own
// counters.
func TestPredicateInstrumentPublishes(t *testing.T) {
	tb := randomTable(11, 200)
	p := costlyPred(t, "p1", 0, 1, 50, 1)
	reg := telemetry.New()
	p.Instrument(reg)

	res, err := ExecuteQuery(tb, []*Predicate{p}, OrderByRank)
	if err != nil {
		t.Fatal(err)
	}

	udf := telemetry.L("udf", "p1")
	if got := reg.Counter("mlq_engine_evaluations_total", "", udf).Value(); got != p.Evaluated() {
		t.Errorf("evaluations series = %d, predicate says %d", got, p.Evaluated())
	}
	if got := reg.Counter("mlq_engine_passed_total", "", udf).Value(); got != int64(res.Selected) {
		t.Errorf("passed series = %d, query selected %d", got, res.Selected)
	}
	costL := []telemetry.Label{telemetry.L("model", "cost"), udf}
	preds := reg.Counter("mlq_engine_predictions_total", "", costL...).Value()
	if preds != p.costPredictions {
		t.Errorf("predictions series = %d, predicate says %d", preds, p.costPredictions)
	}
	if preds == 0 {
		t.Error("ranked query made no predictions")
	}
	fed := reg.Counter("mlq_engine_observations_total", "", costL...).Value()
	if want := p.costGuard.Stats().Fed; fed != want {
		t.Errorf("observations series = %d, guard says %d", fed, want)
	}
	if fed != int64(len(tb.Rows)) {
		t.Errorf("observations = %d, want one per row (%d)", fed, len(tb.Rows))
	}
	if got := reg.Gauge("mlq_engine_mean_cost", "", udf).Value(); got != p.MeanCost() {
		t.Errorf("mean cost gauge = %g, predicate says %g", got, p.MeanCost())
	}
	if got := reg.Gauge("mlq_engine_selectivity", "", udf).Value(); got != p.Selectivity() {
		t.Errorf("selectivity gauge = %g, predicate says %g", got, p.Selectivity())
	}
	if got := reg.Gauge("mlq_engine_breaker_open", "", costL...).Value(); got != 0 {
		t.Errorf("healthy breaker gauge = %g, want 0", got)
	}
}

// TestInstrumentBreakerAndFailures drives a predicate whose model rejects
// every observation and whose UDF panics on some rows, and checks the fault
// series: exec failures, rejected observations, breaker trips, breaker open.
func TestInstrumentBreakerAndFailures(t *testing.T) {
	tb := randomTable(12, 100)
	p := &Predicate{
		Name: "bad",
		Exec: func(row Row) (bool, float64) {
			if row[1] < 10 { // ~10% of rows
				panic("udf crash")
			}
			return true, 1 + row[0]
		},
		Point:    func(row Row) geom.Point { return geom.Point{row[0]} },
		Model:    &flakyModel{observeErr: errors.New("full"), predict: 1, predictOK: true},
		BreakerK: 4,
	}
	reg := telemetry.New()
	p.Instrument(reg)

	res, err := ExecuteQuery(tb, []*Predicate{p}, OrderByRank)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ExecFailures == 0 {
		t.Fatal("workload did not trigger any UDF panics")
	}

	udf := telemetry.L("udf", "bad")
	costL := []telemetry.Label{telemetry.L("model", "cost"), udf}
	if got := reg.Counter("mlq_engine_exec_failures_total", "", udf).Value(); got != res.Faults.ExecFailures {
		t.Errorf("exec failures series = %d, query says %d", got, res.Faults.ExecFailures)
	}
	gs := p.costGuard.Stats()
	if !gs.Open {
		t.Fatal("breaker did not open under constant rejection")
	}
	if got := reg.Gauge("mlq_engine_breaker_open", "", costL...).Value(); got != 1 {
		t.Errorf("breaker gauge = %g, want 1", got)
	}
	if got := reg.Counter("mlq_engine_breaker_trips_total", "", costL...).Value(); got != gs.Trips {
		t.Errorf("trips series = %d, guard says %d", got, gs.Trips)
	}
	if got := reg.Counter("mlq_engine_rejected_observations_total", "", costL...).Value(); got != gs.Rejected {
		t.Errorf("rejected series = %d, guard says %d", got, gs.Rejected)
	}
	if got := reg.Counter("mlq_engine_skipped_observations_total", "", costL...).Value(); got != gs.Skipped {
		t.Errorf("skipped series = %d, guard says %d", got, gs.Skipped)
	}
}

// TestInstrumentDetach checks a nil registry stops publishing.
func TestInstrumentDetach(t *testing.T) {
	tb := randomTable(13, 20)
	p := costlyPred(t, "p1", 0, 1, 50, 1)
	reg := telemetry.New()
	p.Instrument(reg)
	p.Instrument(nil)
	if _, err := ExecuteQuery(tb, []*Predicate{p}, OrderAsGiven); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mlq_engine_evaluations_total", "", telemetry.L("udf", "p1")).Value(); got != 0 {
		t.Errorf("detached predicate still publishing: %d", got)
	}
}
