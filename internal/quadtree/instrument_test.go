package quadtree

import (
	"math/rand"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/telemetry"
)

// TestInstrumentPublishes inserts past the memory limit and checks that the
// registry series mirror the tree's own counters — including the compression
// counters published from inside the compress pass.
func TestInstrumentPublishes(t *testing.T) {
	tr := mustTree(t, Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    6,
		MemoryLimit: 40 * DefaultNodeBytes,
	})
	reg := telemetry.New()
	lbl := telemetry.L("model", "cost")
	tr.Instrument(reg, lbl)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		if err := tr.Insert(p, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}

	if got := reg.Counter("mlq_quadtree_inserts_total", "", lbl).Value(); got != tr.Inserts() {
		t.Errorf("inserts series = %d, tree says %d", got, tr.Inserts())
	}
	if got := reg.Gauge("mlq_quadtree_nodes", "", lbl).Value(); got != float64(tr.NodeCount()) {
		t.Errorf("nodes gauge = %g, tree says %d", got, tr.NodeCount())
	}
	if got := reg.Gauge("mlq_quadtree_memory_bytes", "", lbl).Value(); got != float64(tr.MemoryUsed()) {
		t.Errorf("memory gauge = %g, tree says %d", got, tr.MemoryUsed())
	}
	wantUtil := float64(tr.MemoryUsed()) / float64(tr.Config().MemoryLimit)
	if got := reg.Gauge("mlq_quadtree_memory_utilization", "", lbl).Value(); got != wantUtil {
		t.Errorf("utilization gauge = %g, want %g", got, wantUtil)
	}
	if tr.Compressions() == 0 {
		t.Fatal("workload did not trigger compression; the test needs a tighter limit")
	}
	if got := reg.Counter("mlq_quadtree_compressions_total", "", lbl).Value(); got != tr.Compressions() {
		t.Errorf("compressions series = %d, tree says %d", got, tr.Compressions())
	}
	if got := reg.Counter("mlq_quadtree_removed_nodes_total", "", lbl).Value(); got != tr.RemovedNodes() {
		t.Errorf("removed series = %d, tree says %d", got, tr.RemovedNodes())
	}
	if got := reg.Gauge("mlq_quadtree_sseg_queue_depth", "", lbl).Value(); got != float64(tr.SSEGQueueDepth()) {
		t.Errorf("sseg queue gauge = %g, tree says %d", got, tr.SSEGQueueDepth())
	}
	eager := reg.Counter("mlq_quadtree_eager_inserts_total", "", lbl).Value()
	deferred := reg.Counter("mlq_quadtree_deferred_inserts_total", "", lbl).Value()
	if eager != tr.EagerInserts() || deferred != tr.DeferredInserts() {
		t.Errorf("insert-mode series = (%d, %d), tree says (%d, %d)",
			eager, deferred, tr.EagerInserts(), tr.DeferredInserts())
	}
	if eager+deferred != tr.Inserts() {
		t.Errorf("eager %d + deferred %d != inserts %d", eager, deferred, tr.Inserts())
	}

	// Every compression pass's duration is recorded as a "compress" span.
	h := reg.Histogram("mlq_trace_span_seconds", "", telemetry.L("span", "compress"), lbl)
	if got := h.Count(); got != tr.Compressions() {
		t.Errorf("compress span count = %d, compressions = %d", got, tr.Compressions())
	}
}

// TestInstrumentDetach checks a nil registry stops publishing, and that a detached
// clone does not inherit the original's telemetry.
func TestInstrumentDetach(t *testing.T) {
	tr := mustTree(t, unitCfg(2))
	reg := telemetry.New()
	lbl := telemetry.L("model", "cost")
	tr.Instrument(reg, lbl)

	if err := tr.Insert(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("mlq_quadtree_inserts_total", "", lbl)
	if c.Value() != 1 {
		t.Fatalf("instrumented insert not published: %d", c.Value())
	}

	clone := tr.Clone()
	if err := clone.Insert(geom.Point{0.25, 0.25}, 2); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 1 {
		t.Errorf("clone published into the original's series: %d", c.Value())
	}

	tr.Instrument(nil)
	if err := tr.Insert(geom.Point{0.75, 0.75}, 3); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 1 {
		t.Errorf("detached tree still publishing: %d", c.Value())
	}
}

// TestInstrumentUnlabelled checks an instrumentation with no labels survives
// compression and records every pass under the bare span label.
func TestInstrumentUnlabelled(t *testing.T) {
	tr := mustTree(t, Config{
		Region:      geom.UnitCube(2),
		MemoryLimit: 20 * DefaultNodeBytes,
	})
	reg := telemetry.New()
	tr.Instrument(reg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if err := tr.Insert(geom.Point{rng.Float64(), rng.Float64()}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Compressions() == 0 {
		t.Fatal("no compression ran")
	}
	h := reg.Histogram("mlq_trace_span_seconds", "", telemetry.L("span", "compress"))
	if got := h.Count(); got != tr.Compressions() {
		t.Errorf("compress span count = %d, compressions = %d", got, tr.Compressions())
	}
}

// TestSSEGQueueDepthCountsLeaves drives a mix of inserts, explicit passes
// and Resizes, and before every explicit pass counts the non-root leaves by
// walking the tree: the pass must report exactly that many competitors,
// on the tree and on its gauge.
func TestSSEGQueueDepthCountsLeaves(t *testing.T) {
	tr := mustTree(t, Config{Region: geom.UnitCube(2), Strategy: Lazy, MemoryLimit: 120 * DefaultNodeBytes})
	reg := telemetry.New()
	tr.Instrument(reg)
	gauge := reg.Gauge("mlq_quadtree_sseg_queue_depth", "")
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 3:
			if err := tr.Resize(DefaultNodeBytes * (1 + rng.Intn(200))); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			leaves := 0
			tr.Walk(func(b Block) bool {
				if b.Depth > 0 && b.Children == 0 {
					leaves++
				}
				return true
			})
			tr.Compress()
			if tr.SSEGQueueDepth() != leaves || gauge.Value() != float64(leaves) {
				t.Fatalf("step %d: SSEGQueueDepth %d, gauge %g, want the %d non-root leaves", step, tr.SSEGQueueDepth(), gauge.Value(), leaves)
			}
			checked++
		default:
			if err := tr.Insert(geom.Point{rng.Float64(), rng.Float64()}, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if checked == 0 || tr.Resizes() == 0 {
		t.Fatalf("the mix ran %d checked passes and %d resizes", checked, tr.Resizes())
	}
}
