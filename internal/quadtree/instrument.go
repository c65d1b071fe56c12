package quadtree

import (
	"time"

	"mlq/internal/telemetry"
)

// treeTelemetry mirrors a tree's shape and lifetime counters into a
// telemetry registry. The tree publishes after every Insert and compression
// from its owning goroutine; scrapes read the atomic metric values without
// ever touching the (not concurrency-safe) tree itself.
type treeTelemetry struct {
	nodes       *telemetry.Gauge
	memBytes    *telemetry.Gauge
	memLimit    *telemetry.Gauge
	utilization *telemetry.Gauge
	threshold   *telemetry.Gauge
	ssegQueue   *telemetry.Gauge

	inserts      *telemetry.Counter
	eager        *telemetry.Counter
	deferred     *telemetry.Counter
	compressions *telemetry.Counter
	removed      *telemetry.Counter
	resizes      *telemetry.Counter

	compressSpan *telemetry.Histogram
}

// Instrument registers the tree's metrics under mlq_quadtree_* with the
// given labels (typically model="WIN") and begins publishing them on every
// insert and compression. Each compression pass's duration also lands in
// mlq_trace_span_seconds{span="compress"} under the same labels. Passing a
// nil registry detaches the tree from telemetry again.
//
// Predictions are deliberately uninstrumented: the Predict hot path carries
// no telemetry cost at all (the engine layer counts predictions per
// predicate instead).
func (t *Tree) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		t.tel = nil
		return
	}
	tel := &treeTelemetry{
		nodes:       reg.Gauge("mlq_quadtree_nodes", "current node count including the root", labels...),
		memBytes:    reg.Gauge("mlq_quadtree_memory_bytes", "memory charged to the tree", labels...),
		memLimit:    reg.Gauge("mlq_quadtree_memory_limit_bytes", "live memory budget (moves with Resize)", labels...),
		utilization: reg.Gauge("mlq_quadtree_memory_utilization", "memory used / memory limit", labels...),
		threshold:   reg.Gauge("mlq_quadtree_threshold_sse", "current lazy partitioning threshold th_SSE (Eq. 7)", labels...),
		ssegQueue:   reg.Gauge("mlq_quadtree_sseg_queue_depth", "candidate-leaf queue size of the latest compression pass", labels...),

		inserts:      reg.Counter("mlq_quadtree_inserts_total", "data points inserted", labels...),
		eager:        reg.Counter("mlq_quadtree_eager_inserts_total", "inserts that partitioned down to max depth", labels...),
		deferred:     reg.Counter("mlq_quadtree_deferred_inserts_total", "inserts stopped early by the lazy SSE threshold", labels...),
		compressions: reg.Counter("mlq_quadtree_compressions_total", "compression passes run", labels...),
		removed:      reg.Counter("mlq_quadtree_removed_nodes_total", "nodes discarded by compression", labels...),
		resizes:      reg.Counter("mlq_quadtree_resizes_total", "live-limit changes applied by Resize", labels...),

		compressSpan: reg.Span("compress", labels...),
	}
	t.tel = tel
	tel.publish(t)
}

// publish pushes the tree's current state into the registered metrics. It
// must be called from the goroutine that owns the tree.
func (tel *treeTelemetry) publish(t *Tree) {
	tel.nodes.SetInt(int64(t.nodeCount))
	tel.memBytes.SetInt(int64(t.MemoryUsed()))
	tel.memLimit.SetInt(int64(t.cfg.MemoryLimit))
	if t.cfg.MemoryLimit > 0 {
		tel.utilization.Set(float64(t.MemoryUsed()) / float64(t.cfg.MemoryLimit))
	}
	tel.threshold.Set(t.Threshold())
	tel.ssegQueue.SetInt(int64(t.ssegQueueDepth))

	tel.inserts.Store(t.inserts)
	tel.eager.Store(t.eagerInserts)
	tel.deferred.Store(t.deferredInserts)
	tel.compressions.Store(t.compressions)
	tel.removed.Store(t.removedNodes)
	tel.resizes.Store(t.resizes)
}

// compressDone publishes after a compression pass and records its duration.
func (tel *treeTelemetry) compressDone(t *Tree, d time.Duration) {
	tel.publish(t)
	tel.compressSpan.Observe(d.Seconds())
}
