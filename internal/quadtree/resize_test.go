package quadtree

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mlq/internal/geom"
)

func insertStream(t *testing.T, tr *Tree, seed int64, n int) {
	t.Helper()
	region := tr.Config().Region
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := make(geom.Point, region.Dims())
		for d := range p {
			p[d] = region.Lo[d] + rng.Float64()*(region.Hi[d]-region.Lo[d])
		}
		if err := tr.Insert(p, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResizeFloor(t *testing.T) {
	tr := mustTree(t, Config{Region: geom.UnitCube(2), MemoryLimit: 40 * DefaultNodeBytes})
	if err := tr.Resize(DefaultNodeBytes - 1); err == nil {
		t.Error("Resize below one node accepted, want error")
	}
	if err := tr.Resize(DefaultNodeBytes); err != nil {
		t.Errorf("Resize to exactly one node rejected: %v", err)
	}
}

func TestResizeToCurrentIsBitIdenticalNoop(t *testing.T) {
	tr := buildTrained(t, 43)
	before := tr.Stats()
	var b1 bytes.Buffer
	if _, err := tr.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Resize(tr.MemoryLimit()); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if _, err := tr.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("Resize to the current limit changed the serialized form")
	}
	if !reflect.DeepEqual(before, tr.Stats()) {
		t.Errorf("Resize to the current limit moved counters: %+v -> %+v", before, tr.Stats())
	}
}

func TestResizeShrinkProperties(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tr := mustTree(t, Config{
			Region:      geom.UnitCube(2),
			MaxDepth:    6,
			MemoryLimit: 200 * DefaultNodeBytes,
		})
		insertStream(t, tr, seed, 800)
		rng := rand.New(rand.NewSource(seed * 77))
		limit := tr.MemoryLimit()
		for step := 0; step < 6; step++ {
			limit = DefaultNodeBytes + rng.Intn(limit)
			if err := tr.Resize(limit); err != nil {
				t.Fatalf("seed %d: Resize(%d): %v", seed, limit, err)
			}
			if tr.MemoryUsed() > limit {
				t.Fatalf("seed %d: memory %d over shrunk limit %d", seed, tr.MemoryUsed(), limit)
			}
			if tr.NodeCount() < 1 {
				t.Fatalf("seed %d: root evicted by shrink", seed)
			}
			if tr.MemoryLimit() != limit || tr.Stats().MemoryLimit != limit {
				t.Fatalf("seed %d: live limit not tracked: %d/%d want %d",
					seed, tr.MemoryLimit(), tr.Stats().MemoryLimit, limit)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d after shrink to %d: %v", seed, limit, err)
			}
		}
		if tr.Resizes() == 0 {
			t.Fatalf("seed %d: resize counter never moved", seed)
		}
	}
}

func TestResizeGrowThenShrink(t *testing.T) {
	tr := mustTree(t, Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    6,
		MemoryLimit: 40 * DefaultNodeBytes,
	})
	insertStream(t, tr, 7, 500)
	grown := 400 * DefaultNodeBytes
	if err := tr.Resize(grown); err != nil {
		t.Fatal(err)
	}
	// Growing alone must not build nodes; the ceiling just rises.
	if used := tr.MemoryUsed(); used > 40*DefaultNodeBytes {
		t.Errorf("grow alone changed memory use to %d", used)
	}
	insertStream(t, tr, 8, 500)
	if tr.MemoryUsed() <= 40*DefaultNodeBytes {
		t.Error("inserts after grow never used the new headroom")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after grow: %v", err)
	}
	if err := tr.Resize(40 * DefaultNodeBytes); err != nil {
		t.Fatal(err)
	}
	if tr.MemoryUsed() > 40*DefaultNodeBytes {
		t.Errorf("memory %d over re-shrunk limit", tr.MemoryUsed())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after grow-then-shrink: %v", err)
	}
}

// TestValidateTracksLiveLimit is the regression for the old invariant check
// that compared against the construction-time cfg.MemoryLimit: a shrink
// mid-workload must not read as an over-limit violation on later inserts.
func TestValidateTracksLiveLimit(t *testing.T) {
	tr := mustTree(t, Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    6,
		MemoryLimit: 300 * DefaultNodeBytes,
	})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1200; i++ {
		if i == 600 {
			if err := tr.Resize(60 * DefaultNodeBytes); err != nil {
				t.Fatal(err)
			}
		}
		p := geom.Point{rng.Float64(), rng.Float64()}
		if err := tr.Insert(p, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Stats().MemoryLimit != 60*DefaultNodeBytes {
		t.Errorf("stats limit %d, want live 60 nodes", tr.Stats().MemoryLimit)
	}
}

// TestResizeSerializeRoundTrip checks the golden property: a resized tree
// serializes with its live limit, decodes to an identical tree, and from
// then on evolves bit-for-bit like the original — indistinguishable from a
// tree freshly built at that limit as far as the frame header and every
// invariant are concerned.
func TestResizeSerializeRoundTrip(t *testing.T) {
	tr := buildTrained(t, 47)
	newLimit := 30 * DefaultNodeBytes
	if err := tr.Resize(newLimit); err != nil {
		t.Fatal(err)
	}

	var b1 bytes.Buffer
	if _, err := tr.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.MemoryLimit() != newLimit {
		t.Errorf("decoded limit %d, want live %d", got.MemoryLimit(), newLimit)
	}
	var b2 bytes.Buffer
	if _, err := got.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("resized tree does not round-trip bit-identically")
	}

	// A freshly-built tree at the same limit must carry the same effective
	// configuration the decoded resized tree reports.
	fresh := mustTree(t, Config{
		Region:      tr.Config().Region,
		Strategy:    tr.Config().Strategy,
		MaxDepth:    tr.Config().MaxDepth,
		MemoryLimit: newLimit,
	})
	if fresh.Config().MemoryLimit != got.Config().MemoryLimit {
		t.Error("fresh tree at the live limit disagrees with the decoded one")
	}

	// The decoded copy and the original must evolve identically.
	insertStream(t, tr, 99, 400)
	insertStream(t, got, 99, 400)
	var da, db strings.Builder
	tr.Dump(&da)
	got.Dump(&db)
	if da.String() != db.String() {
		t.Error("original and decoded resized trees diverged on identical inserts")
	}
}

func TestMarginalEconomics(t *testing.T) {
	empty := mustTree(t, unitCfg(2))
	if loss := empty.ShrinkLoss(10 * DefaultNodeBytes); loss != 0 {
		t.Errorf("root-only shrink loss %g, want 0", loss)
	}

	tr := buildTrained(t, 51)
	if tr.ShrinkLoss(0) != 0 {
		t.Error("zero-byte shrink has non-zero loss")
	}
	small := tr.ShrinkLoss(DefaultNodeBytes)
	large := tr.ShrinkLoss(20 * DefaultNodeBytes)
	if small < 0 || large < small {
		t.Errorf("shrink loss not monotone: %g then %g", small, large)
	}
	snap := tr.Snapshot()
	if snap.ShrinkLoss(20*DefaultNodeBytes) != large {
		t.Error("snapshot shrink loss differs from tree's")
	}
	if snap.MemoryLimit() != tr.MemoryLimit() {
		t.Error("snapshot limit differs from tree's live limit")
	}
}
