package nettransport

import (
	"sort"
	"sync"
	"time"
)

// Clock is the transport's injected time source: reconnect backoff, barrier
// watchdogs and heartbeat cadence all wait on its timers, so tests drive the
// whole retry machinery with a FakeClock instead of wall-clock sleeps. Read
// deadlines on sockets are anchored at Now.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is one pending wake-up from a Clock. Every wait that can end before
// the timer fires stops it, so a finished wait holds no timer: a barrier
// completes long before its watchdog's BarrierTimeout, and an unstopped
// timer would stay live that long.
type Timer interface {
	// C delivers the fire time once.
	C() <-chan time.Time
	// Stop releases the timer if it has not fired yet.
	Stop()
}

// wall is the production clock.
type wall struct{}

func (wall) Now() time.Time                 { return time.Now() }
func (wall) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time { return w.t.C }
func (w wallTimer) Stop()               { w.t.Stop() }

// Wall is the production Clock.
var Wall Clock = wall{}

// FakeClock is a manually advanced Clock for deterministic tests: NewTimer
// registers a timer that fires when Advance moves the clock past its
// deadline, and Stop unregisters it. Safe for concurrent use.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	c  *FakeClock
	at time.Time
	ch chan time.Time
}

// NewFakeClock starts a fake clock at an arbitrary fixed origin.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(1_000_000, 0)}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer implements Clock. A non-positive d fires immediately.
func (c *FakeClock) NewTimer(d time.Duration) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{c: c, at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		//lint:ignore chanowner capacity-1 channel written exactly once: an immediate fire never blocks
		t.ch <- t.at
		return t
	}
	c.timers = append(c.timers, t)
	return t
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

// Stop drops the timer from the clock's pending list, if it is still there.
func (t *fakeTimer) Stop() {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.timers {
		if x == t {
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			return
		}
	}
}

// Advance moves the clock forward, firing every timer whose deadline is
// reached, in deadline order.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fakeTimer
	keep := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			due = append(due, t)
		} else {
			keep = append(keep, t)
		}
	}
	clear(c.timers[len(keep):])
	c.timers = keep
	now := c.now
	c.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, t := range due {
		//lint:ignore chanowner capacity-1 channel written exactly once: a timer fires once and is removed from the list first
		t.ch <- now
	}
}

// Pending reports how many timers are waiting — neither fired nor stopped —
// so tests can advance until the machinery under test has parked.
func (c *FakeClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}
