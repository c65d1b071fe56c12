// Package buffercache implements the LRU database buffer cache between query
// execution and the simulated disk. It reproduces the mechanism the paper
// identifies as the source of disk-IO cost noise (§4.3, Experiment 3): the
// number of physical reads a query performs depends on what earlier queries
// left in the cache, so identical queries observe fluctuating IO costs.
package buffercache

import (
	"errors"
	"fmt"
	"time"

	"mlq/internal/events"
	"mlq/internal/pagestore"
)

// Policy selects the cache's replacement algorithm. The policy shapes the
// *noise characteristics* of disk-IO costs (which pages survive between
// repeated queries), so it is configurable for experiments.
type Policy int

const (
	// LRU evicts the least recently used page (the default; what the
	// paper's Oracle setup approximates).
	LRU Policy = iota
	// FIFO evicts the oldest-loaded page regardless of use.
	FIFO
	// Clock is the second-chance approximation of LRU.
	Clock
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Clock:
		return "clock"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrDeadlineExceeded reports a read abandoned because its retry schedule
// would overrun the policy's per-read latency Deadline. It wraps the last
// physical read error; test with errors.Is.
var ErrDeadlineExceeded = errors.New("buffercache: read deadline exceeded")

// RetryPolicy makes physical page reads resilient to transient faults: a
// failed read is retried up to MaxAttempts times with exponential backoff,
// and the whole schedule is bounded by a per-read Deadline. All delay in the
// policy is *modeled*, never slept — the cache runs on virtual time, so a
// degraded disk changes measured IO cost deterministically instead of making
// test runs slow and flaky. The accumulated backoff (plus any injected
// slow-read latency) is charged into the IO cost a Meter reports, which is
// the point: under a flaky disk the feedback loop observes inflated IO costs
// and the self-tuning models absorb the degradation instead of diverging.
//
// The zero value disables retries and charges latency at DefaultUnitLatency.
type RetryPolicy struct {
	// MaxAttempts is the total number of physical read attempts per lookup.
	// Values <= 1 mean a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the modeled backoff before the second attempt.
	BaseDelay time.Duration
	// Multiplier grows the backoff per attempt (values < 1 mean 2).
	Multiplier float64
	// Deadline bounds the modeled latency (injected + backoff) of one
	// lookup; a retry that would overrun it fails with ErrDeadlineExceeded
	// instead. Zero means unbounded.
	Deadline time.Duration
	// UnitLatency converts modeled latency into IO cost units: the nominal
	// service time of one clean physical read. Zero means
	// DefaultUnitLatency.
	UnitLatency time.Duration
}

// DefaultUnitLatency is the assumed service time of one clean physical read
// when RetryPolicy.UnitLatency is unset: 1ms, a spinning-disk-era page read,
// matching the paper's Oracle setup where IO cost is counted in page reads.
const DefaultUnitLatency = time.Millisecond

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts > 1 {
		return p.MaxAttempts
	}
	return 1
}

func (p RetryPolicy) multiplier() float64 {
	if p.Multiplier >= 1 {
		return p.Multiplier
	}
	return 2
}

func (p RetryPolicy) unit() time.Duration {
	if p.UnitLatency > 0 {
		return p.UnitLatency
	}
	return DefaultUnitLatency
}

// RetryStats are the cache's cumulative resilience counters.
type RetryStats struct {
	// Retries counts repeated physical read attempts (attempt 2 and up).
	Retries int64
	// Exhausted counts lookups that failed after the full attempt budget.
	Exhausted int64
	// DeadlineExceeded counts lookups abandoned by the latency deadline.
	DeadlineExceeded int64
	// SlowReads counts physical attempts that were charged injected latency.
	SlowReads int64
	// Latency is the total modeled latency charged (injected + backoff).
	Latency time.Duration
}

// Cache is a fixed-capacity page cache over a pagestore.Store.
// It is not safe for concurrent use.
//
// Resident pages and ghost IDs share one slot array and are threaded
// through it as two circular doubly linked lists of slot indexes: slot 0
// heads the resident list, slot 1 the ghost list. Unused slots chain
// through next from free, so a steady-state miss recycles the slot its
// eviction trimmed off the ghost list and allocates nothing. index maps a
// page ID to its slot (0 = in neither list) and grows when a page ID past
// its end first arrives. A page is never resident and a ghost at once: an
// eviction moves its slot to the ghost list, and a miss takes the slot back.
type Cache struct {
	store    *pagestore.Store
	capacity int
	policy   Policy
	slots    []slot
	index    []int32
	free     int32 // head of the unused-slot chain; 0 = none
	resident int   // pages on the resident list
	ghosts   int   // IDs on the ghost list

	hits      int64
	misses    int64
	evictions int64
	faults    int64 // physical reads that returned an error
	resizes   int64 // capacity changes applied by Resize

	// The ghost list remembers the IDs (never the data) of the last
	// `capacity` evicted pages, ARC-B1 style. A miss on a remembered page is
	// a ghost hit: a physical read that one more capacity window of pages
	// would have avoided. Ghost bookkeeping never influences replacement
	// decisions, so cache behavior is bit-identical with the list in place.
	ghostHits int64

	retry      RetryPolicy
	latencyFor func(pagestore.PageID) time.Duration // nil = no injected latency
	retryStats RetryStats
	charged    float64 // modeled latency in IO cost units (Latency / UnitLatency)

	tel *cacheTelemetry  // nil unless Instrument was called
	ev  *events.Recorder // causal event spine; nil = recording off
}

// The list heads in Cache.slots.
const (
	residentHead = 0 // front = most recent (LRU) / newest (FIFO, Clock)
	ghostHead    = 1 // front = most recently evicted
)

type slot struct {
	data       []byte // nil on the ghost list
	id         pagestore.PageID
	prev, next int32
	ref        bool // Clock's second-chance bit
	ghost      bool // on the ghost list
}

// New returns an LRU cache holding up to capacity pages.
func New(store *pagestore.Store, capacity int) (*Cache, error) {
	return NewWithPolicy(store, capacity, LRU)
}

// NewWithPolicy returns a cache with an explicit replacement policy.
func NewWithPolicy(store *pagestore.Store, capacity int, policy Policy) (*Cache, error) {
	if store == nil {
		return nil, fmt.Errorf("buffercache: store is required")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("buffercache: capacity must be >= 1 page, got %d", capacity)
	}
	switch policy {
	case LRU, FIFO, Clock:
	default:
		return nil, fmt.Errorf("buffercache: unknown policy %d", int(policy))
	}
	c := &Cache{
		store:    store,
		capacity: capacity,
		policy:   policy,
		slots:    make([]slot, 2, 2+2*capacity),
		index:    make([]int32, store.NumPages()),
	}
	c.resetLists()
	return c, nil
}

// resetLists empties both lists and the free chain.
func (c *Cache) resetLists() {
	c.slots[residentHead] = slot{prev: residentHead, next: residentHead}
	c.slots[ghostHead] = slot{prev: ghostHead, next: ghostHead}
	c.free, c.resident, c.ghosts = 0, 0, 0
}

// lookup returns page id's slot, or 0 when the page is in neither list.
func (c *Cache) lookup(id pagestore.PageID) int32 {
	if int(id) < len(c.index) {
		return c.index[id]
	}
	return 0
}

// unlink takes slot s out of its list.
func (c *Cache) unlink(s int32) {
	prev, next := c.slots[s].prev, c.slots[s].next
	c.slots[prev].next = next
	c.slots[next].prev = prev
}

// pushFront links slot s at the front of the list headed by head.
func (c *Cache) pushFront(head, s int32) {
	next := c.slots[head].next
	c.slots[s].prev, c.slots[s].next = head, next
	c.slots[next].prev = s
	c.slots[head].next = s
}

// newSlot returns an unused slot for page id and indexes the page to it.
func (c *Cache) newSlot(id pagestore.PageID) int32 {
	s := c.free
	if s != 0 {
		c.free = c.slots[s].next
	} else {
		s = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	if int(id) >= len(c.index) {
		// The store read id, so it holds at least id+1 pages; index them
		// all at once rather than one growth per new page.
		n := max(c.store.NumPages(), int(id)+1)
		c.index = append(c.index, make([]int32, n-len(c.index))...)
	}
	c.index[id] = s
	return s
}

// freeSlot unindexes slot s's page and puts the slot on the free chain.
func (c *Cache) freeSlot(s int32) {
	c.index[c.slots[s].id] = 0
	c.slots[s] = slot{next: c.free}
	c.free = s
}

// Policy returns the cache's replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetRetryPolicy installs the read retry/backoff/deadline policy. The zero
// policy restores the default single-attempt behavior.
func (c *Cache) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// SetEvents installs (or, with nil, removes) the causal event spine:
// retry-budget exhaustion and deadline abandonment emit fault events, so a
// flight-recorder dump shows the IO distress that preceded a trigger.
func (c *Cache) SetEvents(rec *events.Recorder) { c.ev = rec }

// Retry returns the installed retry policy.
func (c *Cache) Retry() RetryPolicy { return c.retry }

// SetReadLatency installs (or, with nil, removes) the injected-latency hook,
// consulted once per physical read attempt. The returned delay is modeled —
// charged, never slept; wire it to faults.Injector.PageReadDelay to simulate
// a slow disk.
func (c *Cache) SetReadLatency(f func(pagestore.PageID) time.Duration) { c.latencyFor = f }

// RetryStats returns the cache's cumulative resilience counters.
func (c *Cache) RetryStats() RetryStats { return c.retryStats }

// ChargedUnits returns the total modeled latency charged so far, expressed
// in IO cost units (clean-read equivalents). Zero whenever no latency was
// injected and no retry backed off — the fault-free path's IO costs are
// bit-identical with or without a policy installed.
func (c *Cache) ChargedUnits() float64 { return c.charged }

// charge folds one lookup's modeled latency into the cost accounting.
func (c *Cache) charge(lat time.Duration) {
	if lat <= 0 {
		return
	}
	c.retryStats.Latency += lat
	c.charged += float64(lat) / float64(c.retry.unit())
}

// readThrough performs one physical read under the retry policy, charging
// all modeled latency (injected slow-read delays plus retry backoff) of the
// lookup. Virtual time only: nothing here sleeps.
func (c *Cache) readThrough(id pagestore.PageID) ([]byte, error) {
	var lat time.Duration
	backoff := c.retry.BaseDelay
	attempts := c.retry.attempts()
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			c.retryStats.Retries++
		}
		if c.latencyFor != nil {
			if d := c.latencyFor(id); d > 0 {
				c.retryStats.SlowReads++
				lat += d
			}
		}
		if c.retry.Deadline > 0 && lat > c.retry.Deadline {
			// The modeled completion time overran the client's patience:
			// the lookup is abandoned at the deadline (that much latency
			// was really spent waiting) regardless of what the disk would
			// eventually have returned.
			c.retryStats.DeadlineExceeded++
			c.charge(c.retry.Deadline)
			c.ev.Emit(events.SubBufferCache, events.KindReadDeadline, 0, uint64(id), uint64(attempt))
			return nil, fmt.Errorf("%w: page %d stalled %v against a %v deadline",
				ErrDeadlineExceeded, id, lat, c.retry.Deadline)
		}
		data, err := c.store.Read(id)
		if err == nil {
			c.charge(lat)
			return data, nil
		}
		if attempt >= attempts {
			if attempts > 1 {
				c.retryStats.Exhausted++
				c.ev.Emit(events.SubBufferCache, events.KindRetryExhausted, 0, uint64(id), uint64(attempt))
			}
			c.charge(lat)
			return nil, err
		}
		if c.retry.Deadline > 0 && lat+backoff > c.retry.Deadline {
			// Waited lat so far; the next backoff would bust the budget, so
			// give up now and charge only the time actually waited.
			c.retryStats.DeadlineExceeded++
			c.charge(lat)
			c.ev.Emit(events.SubBufferCache, events.KindReadDeadline, 0, uint64(id), uint64(attempt))
			return nil, fmt.Errorf("%w: page %d still failing after %d attempts and %v of %v budget: %v",
				ErrDeadlineExceeded, id, attempt, lat, c.retry.Deadline, err)
		}
		lat += backoff
		backoff = time.Duration(float64(backoff) * c.retry.multiplier())
	}
}

// Get returns the contents of page id, reading through the cache. A hit
// costs nothing; a miss performs one physical read and may evict a page
// per the replacement policy. The returned slice must not be modified.
func (c *Cache) Get(id pagestore.PageID) ([]byte, error) {
	if s := c.lookup(id); s != 0 && !c.slots[s].ghost {
		c.hits++
		switch c.policy {
		case LRU:
			c.unlink(s)
			c.pushFront(residentHead, s)
		case Clock:
			c.slots[s].ref = true
		}
		if c.tel != nil {
			c.tel.publish(c)
		}
		return c.slots[s].data, nil
	}
	data, err := c.readThrough(id)
	if err != nil {
		c.faults++
		if c.tel != nil {
			c.tel.publish(c)
		}
		return nil, err
	}
	c.misses++
	s := c.lookup(id)
	if s != 0 {
		// This physical read would have been a hit with one more capacity
		// window of pages — the signal the memory arbiter's hit-ratio
		// gradient is built from. Each eviction can contribute at most one
		// ghost hit: the entry is consumed, and its slot holds the page.
		c.ghostHits++
		c.unlink(s)
		c.ghosts--
	}
	if c.resident >= c.capacity {
		c.evict()
	}
	if s == 0 {
		s = c.newSlot(id)
	}
	c.slots[s] = slot{id: id, data: data}
	c.pushFront(residentHead, s)
	c.resident++
	if c.tel != nil {
		c.tel.publish(c)
	}
	return data, nil
}

// evict removes one page per the replacement policy.
func (c *Cache) evict() {
	c.evictions++
	// LRU keeps recency order by moving hits to the front, so the back is
	// the least recently used; under FIFO the back is simply the
	// oldest-loaded page. Clock sweeps from the oldest end, granting one
	// second chance to referenced pages.
	s := c.slots[residentHead].prev
	if c.policy == Clock {
		for c.slots[s].ref {
			c.slots[s].ref = false
			c.unlink(s)
			c.pushFront(residentHead, s)
			s = c.slots[residentHead].prev
		}
	}
	c.unlink(s)
	c.resident--
	c.remember(s)
}

// remember moves an evicted page's slot to the front of the ghost list,
// bounded to one capacity window of history.
func (c *Cache) remember(s int32) {
	c.slots[s].data = nil
	c.slots[s].ghost = true
	c.pushFront(ghostHead, s)
	c.ghosts++
	c.trimGhost()
}

// trimGhost bounds the ghost list to the current capacity.
func (c *Cache) trimGhost() {
	for c.ghosts > c.capacity {
		back := c.slots[ghostHead].prev
		c.unlink(back)
		c.ghosts--
		c.freeSlot(back)
	}
}

// Hits returns the number of cache hits served.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of physical reads performed (the IO cost unit).
func (c *Cache) Misses() int64 { return c.misses }

// Evictions returns the number of pages evicted to make room.
func (c *Cache) Evictions() int64 { return c.evictions }

// Faults returns the number of physical reads that returned an error (the
// page never entered the cache and the error propagated to the caller).
func (c *Cache) Faults() int64 { return c.faults }

// HitRatio returns hits/(hits+misses), or 0 before any lookup. Faulted reads
// are neither hits nor misses — they never produced a page.
func (c *Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// GhostHits returns how many misses landed on a page evicted within the
// last capacity window — physical reads a bigger cache would have served
// from memory. The ratio of ghost hits to the ghost window's byte size is
// the cache's marginal hit-ratio gradient.
func (c *Cache) GhostHits() int64 { return c.ghostHits }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.resident }

// Capacity returns the cache capacity in pages.
func (c *Cache) Capacity() int { return c.capacity }

// CapacityBytes returns the cache capacity in bytes — capacity pages at the
// backing store's page size — so budget arbitration and dashboards speak
// the same unit as the model memory limits.
func (c *Cache) CapacityBytes() int { return c.capacity * c.store.PageSize() }

// Resizes returns how many times Resize changed the capacity.
func (c *Cache) Resizes() int64 { return c.resizes }

// Resize moves the cache's live capacity to the given number of pages.
// Growing only raises the ceiling: nothing is read or dropped, and later
// misses fill the new room. Shrinking evicts in replacement-policy order —
// least recently used first under the default policy — until the cache
// fits, charging each removal to the same eviction counter Get uses.
// Hit/miss accounting is exact across the transition: lookups before and
// after a Resize are classified and counted identically.
func (c *Cache) Resize(pages int) error {
	if pages < 1 {
		return fmt.Errorf("buffercache: capacity must be >= 1 page, got %d", pages)
	}
	if pages == c.capacity {
		return nil
	}
	old := c.capacity
	c.capacity = pages
	for c.resident > c.capacity {
		c.evict()
	}
	c.trimGhost()
	c.resizes++
	c.ev.Emit(events.SubBufferCache, events.KindResize, 0, uint64(old), uint64(pages))
	if c.tel != nil {
		c.tel.publish(c)
	}
	return nil
}

// Invalidate drops every cached page, as after a restart; counters persist.
// The ghost list is dropped too: after a cold restart an early miss says
// nothing about capacity.
func (c *Cache) Invalidate() {
	clear(c.index)
	clear(c.slots) // drop the page references
	c.slots = c.slots[:2]
	c.resetLists()
}

// Meter measures the IO cost of one query: snapshot before, Delta/Cost after.
type Meter struct {
	cache   *Cache
	misses  int64
	charged float64
}

// NewMeter snapshots the cache's miss and latency-charge counters.
func (c *Cache) NewMeter() Meter {
	return Meter{cache: c, misses: c.misses, charged: c.charged}
}

// Delta returns the physical reads performed since the snapshot.
func (m Meter) Delta() int64 { return m.cache.misses - m.misses }

// Cost returns the modeled IO cost since the snapshot: physical reads plus
// the latency charged by the retry policy and any injected slow reads,
// expressed in clean-read equivalents. On a healthy disk Cost equals
// float64(Delta()) exactly, so feeding Cost to the IO cost models changes
// nothing until a fault makes the disk slow — at which point predictions
// self-tune to the degraded service time instead of diverging from it.
func (m Meter) Cost() float64 {
	return float64(m.Delta()) + m.cache.charged - m.charged
}
