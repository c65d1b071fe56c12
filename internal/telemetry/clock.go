package telemetry

import (
	"sync"
	"time"
)

// Clock abstracts the wall-clock source of the observability layers so they
// stay deterministic under test: the engine, optimizer and quadtree never
// call time.Now themselves (the detertime analyzer enforces that), and the
// event spine and the registry's scrape stamp only reach the wall clock
// through this interface. Tests inject a FakeClock and replay identical
// timelines run after run.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// wallClock is the production Clock — the single wall-clock boundary of the
// telemetry layer.
type wallClock struct{}

// Now returns the wall-clock time.
func (wallClock) Now() time.Time {
	//lint:ignore detertime the telemetry layer's single wall-clock boundary; spans record when work happened, they never influence a decision
	return time.Now()
}

// Wall is the production clock.
var Wall Clock = wallClock{}

// FakeClock is a manually advanced Clock for deterministic tests. The zero
// value starts at the zero time; use Set/Advance to move it. Safe for
// concurrent use.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Set jumps the clock to t.
func (c *FakeClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
