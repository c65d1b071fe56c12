// Package telemetry is the runtime observability layer of the MLQ engine:
// a concurrency-safe registry of counters, gauges and log-bucketed
// histograms (including the Figure-1 feedback loop's per-stage span
// histograms, see Registry.Span), Prometheus-text and JSON exposition over
// HTTP (server.go), the injectable wall clock (clock.go), and a rolling
// prediction-error tracker (errtrack.go). The structured run timeline is the
// causal event spine in internal/events, not this package.
//
// The package is stdlib-only, matching the repository's no-external-deps
// stance (see DESIGN.md §7), and every type is nil-safe: methods on a nil
// *Registry, *Counter, *Gauge, *Histogram or *ErrorTracker are no-ops, so
// instrumented code pays only a nil check when telemetry is disabled — the
// hot-path contract TestInstrumentationAllocs pins.
//
// Metric names follow the scheme mlq_<layer>_<signal> (DESIGN.md §8), e.g.
// mlq_quadtree_memory_utilization or mlq_engine_breaker_open. Series are
// identified by name plus a sorted label set; registering the same series
// twice returns the same metric, so instrumenting a fresh model generation
// under the labels of a previous one continues the same series.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the exposition type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Counter is a monotonically increasing metric. The zero value is usable;
// all methods are atomic and nil-safe.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored — counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Store overwrites the counter with an absolute total. It exists for
// mirroring an already-monotonic source counter (e.g. a quadtree's lifetime
// insert count) into the registry from the goroutine that owns the source.
func (c *Counter) Store(total int64) {
	if c == nil {
		return
	}
	c.v.Store(total)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is usable; all
// methods are atomic and nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// SetInt overwrites the gauge with an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// series is one registered time series of a family.
type series struct {
	labels []Label // sorted by key
	sig    string  // canonical label signature, the series' map key

	counter *Counter
	gauge   *Gauge
	fn      func() float64 // func-backed counter/gauge; must be race-safe
	hist    *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind
	fn   bool // func-backed (fn series field instead of counter/gauge)

	series map[string]*series
}

// Registry holds metric families and renders them (prom.go, json.go). All
// methods are safe for concurrent use and nil-safe.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	conflicts atomic.Int64
	clock     Clock // nil means Wall; see SetClock
}

// SetClock replaces the clock stamping the JSON exposition's scrape metadata
// (default Wall). Tests inject a FakeClock so /metrics.json is byte-stable.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// now reads the registry's clock (Wall when unset).
func (r *Registry) now() time.Time {
	if r == nil {
		return Wall.Now()
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	if c == nil {
		c = Wall
	}
	return c.Now()
}

// New returns an empty registry. Its only pre-registered series is
// mlq_telemetry_conflicts_total, counting registrations that clashed with an
// existing family of a different type (the offending caller receives a
// detached, still-usable metric instead of a panic).
func New() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.CounterFunc("mlq_telemetry_conflicts_total",
		"registrations rejected because the name was taken by another metric type",
		func() float64 { return float64(r.conflicts.Load()) })
	return r
}

// canonicalLabels sorts a copy of labels by key, dropping empties.
func canonicalLabels(labels []Label) []Label {
	out := make([]Label, 0, len(labels))
	for _, l := range labels {
		if l.Key != "" {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// signature renders the canonical series key, e.g. `predicate="WIN",model="cost"`.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// lookup finds or creates the family and series slot for one registration.
// It returns nil when the name is already claimed by a different metric kind
// (the conflict counter is incremented; the caller hands out a detached
// metric so instrumented code keeps working).
func (r *Registry) lookup(name, help string, kind metricKind, fn bool, labels []Label) *series {
	labels = canonicalLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, fn: fn, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind || f.fn != fn {
		r.conflicts.Add(1)
		return nil
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: labels, sig: sig}
		switch {
		case fn:
			// fn filled in by caller (replaced on re-registration below).
		case kind == kindCounter:
			s.counter = &Counter{}
		case kind == kindGauge:
			s.gauge = &Gauge{}
		case kind == kindHistogram:
			s.hist = &Histogram{}
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter series name{labels...}, registering it on
// first use. Returns nil (a no-op counter) on a nil registry or a name
// conflict.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindCounter, false, labels)
	if s == nil {
		return &Counter{} // detached
	}
	return s.counter
}

// Gauge returns the gauge series name{labels...}, registering it on first
// use. Returns nil (a no-op gauge) on a nil registry or a name conflict.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindGauge, false, labels)
	if s == nil {
		return &Gauge{} // detached
	}
	return s.gauge
}

// GaugeFunc registers a pull-based gauge evaluated at exposition time. fn
// must be safe to call from the exposition goroutine (read atomics or take a
// lock). Re-registering the same series replaces the function — the newest
// generation of an object becomes the live view.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	if s := r.lookup(name, help, kindGauge, true, labels); s != nil {
		r.mu.Lock()
		s.fn = fn
		r.mu.Unlock()
	}
}

// CounterFunc registers a pull-based counter evaluated at exposition time;
// fn must be monotonic and race-safe. Re-registration replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	if s := r.lookup(name, help, kindCounter, true, labels); s != nil {
		r.mu.Lock()
		s.fn = fn
		r.mu.Unlock()
	}
}

// Histogram returns the log-bucketed histogram series name{labels...},
// registering it on first use. Returns nil (a no-op histogram) on a nil
// registry or a name conflict.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, kindHistogram, false, labels)
	if s == nil {
		return &Histogram{} // detached
	}
	return s.hist
}

// Span returns the duration histogram of one feedback-loop stage,
// mlq_trace_span_seconds{span=name,labels...}, observed in seconds by the
// stage's owner. Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Span(name string, labels ...Label) *Histogram {
	return r.Histogram("mlq_trace_span_seconds", "feedback-loop stage durations in seconds",
		append([]Label{L("span", name)}, labels...)...)
}

// snapshot returns the families sorted by name, each with its series sorted
// by label signature — the stable iteration order both expositions use.
func (r *Registry) snapshot() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// seriesView is a render-time copy of one series: the metric pointers are
// immutable once created, and fn is copied under the registry lock so that
// exposition can invoke it lock-free (a func metric may itself consult other
// state; calling it under the registry mutex would invite deadlocks).
type seriesView struct {
	labels []Label
	sig    string

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// value resolves the series' scalar value (counters and gauges).
func (v seriesView) value() float64 {
	switch {
	case v.fn != nil:
		return v.fn()
	case v.counter != nil:
		return float64(v.counter.Value())
	case v.gauge != nil:
		return v.gauge.Value()
	default:
		return 0
	}
}

// sortedSeries returns render-time copies of a family's series sorted by
// signature. The copies are taken under the registry lock; reads of live
// metric values afterwards go through atomics, so rendering never blocks
// writers.
func (f *family) sortedSeries(r *Registry) []seriesView {
	r.mu.Lock()
	out := make([]seriesView, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, seriesView{
			labels: s.labels, sig: s.sig,
			counter: s.counter, gauge: s.gauge, fn: s.fn, hist: s.hist,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}
