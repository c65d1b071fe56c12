package core

import (
	"fmt"
	"math"
	"strings"

	"mlq/internal/geom"
)

// ValidCost reports whether v is usable as an observed or predicted UDF
// execution cost: finite and non-negative. NaN, ±Inf and negative values are
// the corruptions a hardened feedback loop must quarantine rather than feed
// into a model (they would poison every block average on their insertion
// path).
func ValidCost(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Fallback is a graceful-degradation chain of cost models: Predict walks the
// members in order and returns the first usable answer (ok and ValidCost),
// bottoming out at a constant prior so it *always* answers — an optimizer
// built on a Fallback never loses cost-based planning entirely, it only
// degrades in fidelity (self-tuning MLQ → static histogram → constant).
//
// Observe routes to the first member only, which by convention is the
// self-tuning one; static members keep their a-priori training. Invalid
// observations are rejected with an error before reaching the member, so a
// Fallback is safe to feed unvalidated measurements.
//
// Fallback is not safe for concurrent use: callers serialize its calls.
type Fallback struct {
	members  []Model
	prior    float64
	answered []int64 // per-member Predict answers
	priorAns int64   // Predicts that bottomed out at the prior
	rejected int64   // invalid observations refused
}

var _ Model = (*Fallback)(nil)

// NewFallback builds the chain. The prior must itself be a valid cost; the
// member list may be empty (a pure constant model). Nil members are skipped.
func NewFallback(prior float64, members ...Model) (*Fallback, error) {
	if !ValidCost(prior) {
		return nil, fmt.Errorf("core: fallback prior %g is not a valid cost", prior)
	}
	kept := make([]Model, 0, len(members))
	for _, m := range members {
		if m != nil {
			kept = append(kept, m)
		}
	}
	return &Fallback{
		members:  kept,
		prior:    prior,
		answered: make([]int64, len(kept)),
	}, nil
}

// Predict implements Model. ok is always true: some level of the chain
// answers every query.
func (f *Fallback) Predict(p geom.Point) (float64, bool) {
	for i, m := range f.members {
		if v, ok := m.Predict(p); ok && ValidCost(v) {
			f.answered[i]++
			return v, true
		}
	}
	f.priorAns++
	return f.prior, true
}

// Observe implements Model: the sample is validated, then routed to the
// first (self-tuning) member. A chain with no members absorbs observations
// silently.
func (f *Fallback) Observe(p geom.Point, actual float64) error {
	if !ValidCost(actual) {
		f.rejected++
		return fmt.Errorf("core: fallback rejects invalid observed cost %g", actual)
	}
	if len(f.members) == 0 {
		return nil
	}
	return f.members[0].Observe(p, actual)
}

// Name implements Model, e.g. "FB(MLQ-E→SH-H→prior)".
func (f *Fallback) Name() string {
	var b strings.Builder
	b.WriteString("FB(")
	for _, m := range f.members {
		b.WriteString(m.Name())
		b.WriteString("→")
	}
	b.WriteString("prior)")
	return b.String()
}

// FallbackStats reports how often each level of the chain answered.
type FallbackStats struct {
	// Answered[i] counts predictions answered by member i, in chain order.
	Answered []int64
	// Prior counts predictions that bottomed out at the constant prior.
	Prior int64
	// Rejected counts invalid observations refused by Observe.
	Rejected int64
}

// Stats returns the chain's degradation counters.
func (f *Fallback) Stats() FallbackStats {
	out := FallbackStats{
		Answered: make([]int64, len(f.answered)),
		Prior:    f.priorAns,
		Rejected: f.rejected,
	}
	copy(out.Answered, f.answered)
	return out
}

// Members returns the chain's members in order (e.g. for catalog
// persistence of the individual models).
func (f *Fallback) Members() []Model { return f.members }
