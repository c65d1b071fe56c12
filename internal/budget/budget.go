// Package budget implements the global memory wall: a fixed total byte
// budget arbitrated between live holders — quadtree cost models and the
// buffer cache — by comparing marginal value per byte. Each holder prices
// what its cheapest bytes are currently buying (Loss) and what one more
// step of bytes would earn (Gain), both in the workload's cost units per
// cycle; the Arbiter moves a bounded step from the lowest-marginal-value
// holder to the highest, with hysteresis and a reversal guard so
// measurement noise cannot make the wall oscillate. Everything is
// deterministic and clock-free: marginals come from counter deltas between
// cycles, never from wall time.
package budget

import (
	"fmt"
	"sync"

	"mlq/internal/telemetry"
)

// Marginal prices one arbitration step of bytes at a holder, in the
// workload's cost units per cycle per byte.
type Marginal struct {
	// Gain estimates the cost saved each cycle, per byte, if the holder
	// were granted one more step of budget.
	Gain float64
	// Loss estimates the cost paid each cycle, per byte, if one step of
	// budget were taken away.
	Loss float64
}

// Holder is one tenant of the memory wall. Implementations are not safe
// for concurrent use; the Arbiter serializes all calls under its mutex.
type Holder interface {
	// Name identifies the holder in stats and telemetry. Unique per Arbiter.
	Name() string
	// BudgetBytes returns the bytes currently granted to the holder.
	BudgetBytes() int
	// FloorBytes returns the grant below which the holder cannot operate;
	// the Arbiter never shrinks a holder under its floor.
	FloorBytes() int
	// Tick consumes the telemetry accumulated since the previous Tick and
	// prices stepBytes of budget at the margin. Called exactly once per
	// arbitration cycle, so deltas stay per-cycle.
	Tick(stepBytes int) Marginal
	// SetBudget regrants the holder's budget. The Arbiter only calls it
	// with values >= FloorBytes.
	SetBudget(bytes int) error
}

// Defaults for the zero Config.
const (
	// DefaultStepBytes is the byte step one cycle may move.
	DefaultStepBytes = 4096
	// DefaultHysteresis is the fraction by which the recipient's gain must
	// exceed the donor's loss before a move happens.
	DefaultHysteresis = 0.25
	// DefaultReversalGuard is how many cycles after a move the exact reverse
	// transfer stays blocked. Hysteresis bounds how big a marginal gap must
	// be; the guard bounds how often the same bytes may change direction, so
	// two holders whose estimators disagree cannot trade a step back and
	// forth in a limit cycle.
	DefaultReversalGuard = 8
)

// Config tunes the Arbiter. The zero value uses the defaults above.
type Config struct {
	// StepBytes bounds how many bytes one cycle may move (<=0 means
	// DefaultStepBytes). The step is further capped by the donor's
	// headroom above its floor.
	StepBytes int
	// Hysteresis is the move threshold: a move requires
	// gain > loss*(1+Hysteresis). Zero means DefaultHysteresis; negative
	// disables hysteresis entirely.
	Hysteresis float64
	// ReversalGuard blocks the exact reverse of the most recent move for
	// this many cycles after it happens. Zero means DefaultReversalGuard;
	// negative disables the guard. Moves in the same direction, or between
	// other holder pairs, are never blocked.
	ReversalGuard int
}

func (c Config) step() int {
	if c.StepBytes > 0 {
		return c.StepBytes
	}
	return DefaultStepBytes
}

func (c Config) hysteresis() float64 {
	if c.Hysteresis < 0 {
		return 0
	}
	if c.Hysteresis > 0 {
		return c.Hysteresis
	}
	return DefaultHysteresis
}

func (c Config) reversalGuard() int {
	if c.ReversalGuard < 0 {
		return 0
	}
	if c.ReversalGuard == 0 {
		return DefaultReversalGuard
	}
	return c.ReversalGuard
}

// Move describes one byte transfer between holders. The zero Move means a
// cycle decided not to move anything.
type Move struct {
	From  string
	To    string
	Bytes int
}

// Moved reports whether the cycle transferred any bytes.
func (m Move) Moved() bool { return m.Bytes > 0 }

// Arbiter runs the memory wall. Safe for concurrent use; every cycle runs
// under one mutex, and Holder methods are only ever called while it is
// held.
type Arbiter struct {
	mu      sync.Mutex
	cfg     Config
	holders []Holder
	last    []Marginal // marginals from the most recent cycle, holder-aligned

	// lastFrom/lastTo are holder indices of the most recent move; the
	// reverse transfer is blocked while cycles <= guardUntil.
	lastFrom, lastTo int
	guardUntil       int64

	cycles     int64
	moves      int64
	bytesMoved int64
	errors     int64

	tel *arbiterTelemetry
}

// New builds an Arbiter over at least two holders with distinct names.
func New(cfg Config, holders ...Holder) (*Arbiter, error) {
	if len(holders) < 2 {
		return nil, fmt.Errorf("budget: an arbiter needs at least 2 holders, got %d", len(holders))
	}
	seen := make(map[string]bool, len(holders))
	for _, h := range holders {
		if seen[h.Name()] {
			return nil, fmt.Errorf("budget: duplicate holder name %q", h.Name())
		}
		seen[h.Name()] = true
		if h.BudgetBytes() < h.FloorBytes() {
			return nil, fmt.Errorf("budget: holder %q starts below its floor (%d < %d bytes)",
				h.Name(), h.BudgetBytes(), h.FloorBytes())
		}
	}
	return &Arbiter{
		cfg:      cfg,
		holders:  holders,
		last:     make([]Marginal, len(holders)),
		lastFrom: -1,
		lastTo:   -1,
	}, nil
}

// Cycle runs one arbitration round: every holder Ticks (consuming its
// per-cycle counter deltas), then at most one bounded step of bytes moves
// from the holder whose cheapest bytes are worth least to the holder whose
// next bytes are worth most — if the gap clears the hysteresis threshold,
// the move would not reverse the previous one inside the guard window, and
// the donor stays at or above its floor. The donor is shrunk before the
// recipient grows, so the sum of grants never exceeds the wall.
func (a *Arbiter) Cycle() (Move, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	a.cycles++
	step := a.cfg.step()
	for i, h := range a.holders {
		a.last[i] = h.Tick(step)
	}
	// Recipient: highest marginal gain (first wins on ties — holder order
	// is the deterministic tie-break).
	rec := 0
	for i := 1; i < len(a.holders); i++ {
		if a.last[i].Gain > a.last[rec].Gain {
			rec = i
		}
	}
	if a.last[rec].Gain <= 0 {
		a.publish()
		return Move{}, nil
	}
	// Donor: lowest marginal loss among the other holders that still have
	// headroom above their floor.
	don := -1
	for i, h := range a.holders {
		if i == rec || h.BudgetBytes() <= h.FloorBytes() {
			continue
		}
		if don < 0 || a.last[i].Loss < a.last[don].Loss {
			don = i
		}
	}
	if don < 0 {
		a.publish()
		return Move{}, nil
	}
	if a.last[rec].Gain <= a.last[don].Loss*(1+a.cfg.hysteresis()) {
		a.publish()
		return Move{}, nil
	}
	if rec == a.lastFrom && don == a.lastTo && a.cycles <= a.guardUntil {
		// This would exactly reverse the previous move inside the guard
		// window: the estimators are disagreeing about the same bytes, and
		// letting them trade is a limit cycle, not adaptation.
		a.publish()
		return Move{}, nil
	}
	give := step
	if head := a.holders[don].BudgetBytes() - a.holders[don].FloorBytes(); give > head {
		give = head
	}

	// Shrink the donor first: between the two grants the wall's total is
	// momentarily under-committed, never over.
	donBefore := a.holders[don].BudgetBytes()
	recBefore := a.holders[rec].BudgetBytes()
	if err := a.holders[don].SetBudget(donBefore - give); err != nil {
		a.errors++
		a.publish()
		return Move{}, fmt.Errorf("budget: shrinking %q: %w", a.holders[don].Name(), err)
	}
	if err := a.holders[rec].SetBudget(recBefore + give); err != nil {
		a.errors++
		if rbErr := a.holders[don].SetBudget(donBefore); rbErr != nil {
			a.errors++
			a.publish()
			return Move{}, fmt.Errorf("budget: growing %q failed (%v) and restoring %q failed: %w",
				a.holders[rec].Name(), err, a.holders[don].Name(), rbErr)
		}
		a.publish()
		return Move{}, fmt.Errorf("budget: growing %q: %w", a.holders[rec].Name(), err)
	}

	a.moves++
	a.bytesMoved += int64(give)
	a.lastFrom, a.lastTo = don, rec
	a.guardUntil = a.cycles + int64(a.cfg.reversalGuard())
	a.publish()
	return Move{From: a.holders[don].Name(), To: a.holders[rec].Name(), Bytes: give}, nil
}

// HolderStats is one holder's line in Stats.
type HolderStats struct {
	Name        string
	BudgetBytes int
	FloorBytes  int
	// Gain and Loss are the holder's marginals from the most recent cycle.
	Gain float64
	Loss float64
}

// Stats is a point-in-time view of the arbiter.
type Stats struct {
	Cycles     int64
	Moves      int64
	BytesMoved int64
	Errors     int64
	Holders    []HolderStats
}

// TotalBytes returns the sum of all grants — the wall itself. Constant
// across Cycles: arbitration conserves bytes.
func (s Stats) TotalBytes() int {
	total := 0
	for _, h := range s.Holders {
		total += h.BudgetBytes
	}
	return total
}

// Stats returns the arbiter's current counters and per-holder grants.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		Cycles:     a.cycles,
		Moves:      a.moves,
		BytesMoved: a.bytesMoved,
		Errors:     a.errors,
		Holders:    make([]HolderStats, len(a.holders)),
	}
	for i, h := range a.holders {
		st.Holders[i] = HolderStats{
			Name:        h.Name(),
			BudgetBytes: h.BudgetBytes(),
			FloorBytes:  h.FloorBytes(),
			Gain:        a.last[i].Gain,
			Loss:        a.last[i].Loss,
		}
	}
	return st
}

// arbiterTelemetry mirrors the arbiter into a registry, pushed from Cycle
// under the arbiter's mutex (the push-from-owner pattern the rest of the
// repo uses).
type arbiterTelemetry struct {
	cycles *telemetry.Counter
	moves  *telemetry.Counter
	moved  *telemetry.Counter
	errs   *telemetry.Counter
	bytes  []*telemetry.Gauge
	gain   []*telemetry.Gauge
	loss   []*telemetry.Gauge
}

// Instrument registers the arbiter's metrics under mlq_budget_* with the
// given labels; per-holder series carry an additional holder label. A nil
// registry detaches the arbiter from telemetry.
func (a *Arbiter) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if reg == nil {
		a.tel = nil
		return
	}
	tel := &arbiterTelemetry{
		cycles: reg.Counter("mlq_budget_cycles_total", "arbitration cycles run", labels...),
		moves:  reg.Counter("mlq_budget_moves_total", "cycles that transferred bytes between holders", labels...),
		moved:  reg.Counter("mlq_budget_moved_bytes_total", "bytes transferred between holders", labels...),
		errs:   reg.Counter("mlq_budget_errors_total", "failed SetBudget calls during arbitration", labels...),
	}
	for _, h := range a.holders {
		hl := append(append([]telemetry.Label(nil), labels...), telemetry.L("holder", h.Name()))
		tel.bytes = append(tel.bytes, reg.Gauge("mlq_budget_holder_bytes", "live byte grant per holder (moves with arbitration)", hl...))
		tel.gain = append(tel.gain, reg.Gauge("mlq_budget_marginal_gain", "holder's latest marginal gain, cost units per cycle per byte", hl...))
		tel.loss = append(tel.loss, reg.Gauge("mlq_budget_marginal_loss", "holder's latest marginal loss, cost units per cycle per byte", hl...))
	}
	a.tel = tel
	a.publish()
}

// publish pushes current state into the registered metrics. Callers hold
// a.mu.
func (a *Arbiter) publish() {
	if a.tel == nil {
		return
	}
	a.tel.cycles.Store(a.cycles)
	a.tel.moves.Store(a.moves)
	a.tel.moved.Store(a.bytesMoved)
	a.tel.errs.Store(a.errors)
	for i, h := range a.holders {
		a.tel.bytes[i].SetInt(int64(h.BudgetBytes()))
		a.tel.gain[i].Set(a.last[i].Gain)
		a.tel.loss[i].Set(a.last[i].Loss)
	}
}
