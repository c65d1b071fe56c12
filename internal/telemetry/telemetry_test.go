package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("mlq_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	c.Store(42)
	if got := c.Value(); got != 42 {
		t.Errorf("after Store, Value = %d, want 42", got)
	}
	// Same name+labels returns the same series.
	if c2 := r.Counter("mlq_test_ops_total", "ops"); c2.Value() != 42 {
		t.Errorf("re-registered counter = %d, want 42", c2.Value())
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("mlq_test_depth", "depth")
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2.0 {
		t.Errorf("Value = %g, want 2", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7.0 {
		t.Errorf("after SetInt, Value = %g, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every metric type handed out by a nil registry must be a no-op, and
	// so must direct nil receivers — this is the disabled-telemetry fast
	// path instrumented code relies on.
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "").Observe(1)
	r.GaugeFunc("d", "", func() float64 { return 1 })
	r.CounterFunc("e", "", func() float64 { return 1 })
	r.Span("f").Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}

	var c *Counter
	c.Inc()
	c.Add(1)
	c.Store(1)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram has state")
	}
	var et *ErrorTracker
	et.Observe(1, 2)
}

func TestLabelCanonicalization(t *testing.T) {
	r := New()
	a := r.Counter("mlq_test_total", "", L("b", "2"), L("a", "1"))
	b := r.Counter("mlq_test_total", "", L("a", "1"), L("b", "2"))
	a.Inc()
	if b.Value() != 1 {
		t.Error("label order created distinct series")
	}
	// Empty keys are dropped.
	c := r.Counter("mlq_test_total", "", L("", "x"), L("a", "1"), L("b", "2"))
	if c.Value() != 1 {
		t.Error("empty label key created a distinct series")
	}
}

func TestKindConflict(t *testing.T) {
	r := New()
	r.Counter("mlq_test_taken", "a counter")
	g := r.Gauge("mlq_test_taken", "now a gauge?") // conflicting kind
	g.Set(9)                                       // detached but usable
	if g.Value() != 9 {
		t.Error("detached gauge unusable")
	}
	if got := r.conflicts.Load(); got != 1 {
		t.Errorf("conflicts = %d, want 1", got)
	}
	// The conflict counter is itself exposed.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mlq_telemetry_conflicts_total 1") {
		t.Errorf("conflict counter not exposed:\n%s", b.String())
	}
	// The detached series must not appear in the exposition.
	if strings.Contains(b.String(), "mlq_test_taken 9") {
		t.Error("detached metric leaked into exposition")
	}
}

func TestFuncReplacement(t *testing.T) {
	r := New()
	r.GaugeFunc("mlq_test_live", "", func() float64 { return 1 })
	r.GaugeFunc("mlq_test_live", "", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mlq_test_live 2") {
		t.Errorf("latest GaugeFunc generation not live:\n%s", b.String())
	}
}

func TestGaugeFuncVsGaugeConflict(t *testing.T) {
	r := New()
	r.Gauge("mlq_test_g", "")
	r.GaugeFunc("mlq_test_g", "", func() float64 { return 1 }) // fn vs value-backed
	if got := r.conflicts.Load(); got != 1 {
		t.Errorf("conflicts = %d, want 1", got)
	}
}

func TestErrorTracker(t *testing.T) {
	r := New()
	et := NewErrorTracker(r, L("model", "MLQ-E"))
	et.Observe(8, 10)  // err 2, |actual| 10
	et.Observe(11, 10) // err 1, |actual| 10
	et.Observe(math.NaN(), 10)
	et.Observe(1, math.Inf(1))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `mlq_model_nae{model="MLQ-E"} 0.15`) {
		t.Errorf("NAE gauge wrong:\n%s", out)
	}
	if !strings.Contains(out, `mlq_model_samples_total{model="MLQ-E"} 2`) {
		t.Errorf("sample counter wrong:\n%s", out)
	}
}
