package buffercache

import "mlq/internal/telemetry"

// cacheTelemetry mirrors the cache's counters into a telemetry registry. The
// cache publishes after every Get from its owning goroutine; scrapes read the
// atomic metric values without touching the (not concurrency-safe) cache.
type cacheTelemetry struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	faults    *telemetry.Counter
	ghostHits *telemetry.Counter
	resizes   *telemetry.Counter
	pages     *telemetry.Gauge
	capacity  *telemetry.Gauge
	capBytes  *telemetry.Gauge
	hitRatio  *telemetry.Gauge

	retries   *telemetry.Counter
	exhausted *telemetry.Counter
	deadlines *telemetry.Counter
	slowReads *telemetry.Counter
	charged   *telemetry.Gauge
}

// Instrument registers the cache's metrics under mlq_buffercache_* with the
// given labels (typically db="text"/"spatial") and begins publishing them on
// every lookup. Passing a nil registry detaches the cache from telemetry.
func (c *Cache) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		c.tel = nil
		return
	}
	tel := &cacheTelemetry{
		hits:      reg.Counter("mlq_buffercache_hits_total", "lookups served from the cache", labels...),
		misses:    reg.Counter("mlq_buffercache_misses_total", "lookups that performed a physical read", labels...),
		evictions: reg.Counter("mlq_buffercache_evictions_total", "pages evicted to make room", labels...),
		faults:    reg.Counter("mlq_buffercache_read_faults_total", "physical reads that returned an error", labels...),
		ghostHits: reg.Counter("mlq_buffercache_ghost_hits_total", "misses on pages evicted within the last capacity window", labels...),
		resizes:   reg.Counter("mlq_buffercache_resizes_total", "capacity changes applied by Resize", labels...),
		pages:     reg.Gauge("mlq_buffercache_pages", "pages currently cached", labels...),
		capacity:  reg.Gauge("mlq_buffercache_capacity_pages", "live cache capacity in pages (moves with Resize)", labels...),
		capBytes:  reg.Gauge("mlq_buffercache_capacity_bytes", "live cache capacity in bytes at the store's page size", labels...),
		hitRatio:  reg.Gauge("mlq_buffercache_hit_ratio", "hits / (hits + misses) over the cache's lifetime", labels...),

		retries:   reg.Counter("mlq_buffercache_retries_total", "repeated physical read attempts under the retry policy", labels...),
		exhausted: reg.Counter("mlq_buffercache_retry_exhausted_total", "lookups that failed after the full retry budget", labels...),
		deadlines: reg.Counter("mlq_buffercache_read_deadline_exceeded_total", "lookups abandoned by the per-read latency deadline", labels...),
		slowReads: reg.Counter("mlq_buffercache_slow_reads_total", "physical read attempts charged injected latency", labels...),
		charged:   reg.Gauge("mlq_buffercache_latency_charged_units", "modeled latency charged into IO cost, in clean-read equivalents", labels...),
	}
	c.tel = tel
	tel.publish(c)
}

// publish pushes the cache's current counters into the registered metrics.
// It must be called from the goroutine that owns the cache.
func (tel *cacheTelemetry) publish(c *Cache) {
	tel.hits.Store(c.hits)
	tel.misses.Store(c.misses)
	tel.evictions.Store(c.evictions)
	tel.faults.Store(c.faults)
	tel.ghostHits.Store(c.ghostHits)
	tel.resizes.Store(c.resizes)
	tel.pages.SetInt(int64(c.resident))
	tel.capacity.SetInt(int64(c.capacity))
	tel.capBytes.SetInt(int64(c.CapacityBytes()))
	tel.hitRatio.Set(c.HitRatio())
	tel.retries.Store(c.retryStats.Retries)
	tel.exhausted.Store(c.retryStats.Exhausted)
	tel.deadlines.Store(c.retryStats.DeadlineExceeded)
	tel.slowReads.Store(c.retryStats.SlowReads)
	tel.charged.Set(c.charged)
}
