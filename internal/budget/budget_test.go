package budget

import (
	"errors"
	"math/rand"
	"testing"

	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/geom"
	"mlq/internal/pagestore"
	"mlq/internal/quadtree"
	"mlq/internal/telemetry"
)

// fakeHolder is a scripted Holder: fixed marginals, in-memory grant.
type fakeHolder struct {
	name   string
	budget int
	floor  int
	margin Marginal

	ticks     int
	lastStep  int
	shrinkErr error
	growErr   error
}

func (f *fakeHolder) Name() string     { return f.name }
func (f *fakeHolder) BudgetBytes() int { return f.budget }
func (f *fakeHolder) FloorBytes() int  { return f.floor }
func (f *fakeHolder) Tick(step int) Marginal {
	f.ticks++
	f.lastStep = step
	return f.margin
}
func (f *fakeHolder) SetBudget(b int) error {
	if b < f.budget && f.shrinkErr != nil {
		return f.shrinkErr
	}
	if b > f.budget && f.growErr != nil {
		return f.growErr
	}
	f.budget = b
	return nil
}

func totalBytes(hs ...*fakeHolder) int {
	total := 0
	for _, h := range hs {
		total += h.budget
	}
	return total
}

func TestNewValidation(t *testing.T) {
	a := &fakeHolder{name: "a", budget: 100, floor: 10}
	if _, err := New(Config{}, a); err == nil {
		t.Error("single holder accepted")
	}
	dup := &fakeHolder{name: "a", budget: 100, floor: 10}
	if _, err := New(Config{}, a, dup); err == nil {
		t.Error("duplicate names accepted")
	}
	under := &fakeHolder{name: "b", budget: 5, floor: 10}
	if _, err := New(Config{}, a, under); err == nil {
		t.Error("holder starting below its floor accepted")
	}
}

func TestCycleMovesTowardHighestGain(t *testing.T) {
	hungry := &fakeHolder{name: "model", budget: 8192, floor: 1024, margin: Marginal{Gain: 5, Loss: 5}}
	idle := &fakeHolder{name: "cache", budget: 8192, floor: 1024, margin: Marginal{}}
	a, err := New(Config{StepBytes: 2048}, hungry, idle)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := a.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	want := Move{From: "cache", To: "model", Bytes: 2048}
	if mv != want {
		t.Fatalf("move = %+v, want %+v", mv, want)
	}
	if hungry.budget != 8192+2048 || idle.budget != 8192-2048 {
		t.Errorf("grants %d/%d after move", hungry.budget, idle.budget)
	}
	if hungry.ticks != 1 || idle.ticks != 1 || hungry.lastStep != 2048 {
		t.Error("holders not ticked exactly once with the configured step")
	}
	if got := totalBytes(hungry, idle); got != 2*8192 {
		t.Errorf("total %d bytes, arbitration must conserve the wall", got)
	}
}

func TestCycleStepBoundedByDonorHeadroom(t *testing.T) {
	hungry := &fakeHolder{name: "a", budget: 4096, floor: 512, margin: Marginal{Gain: 9, Loss: 9}}
	donor := &fakeHolder{name: "b", budget: 1024, floor: 512, margin: Marginal{}}
	a, err := New(Config{StepBytes: 4096}, hungry, donor)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := a.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if mv.Bytes != 512 {
		t.Fatalf("moved %d bytes, want 512 (donor headroom)", mv.Bytes)
	}
	if donor.budget != donor.floor {
		t.Errorf("donor at %d, want its floor %d", donor.budget, donor.floor)
	}
	// The donor is now pinned to its floor: no further moves.
	if mv, err := a.Cycle(); err != nil || mv.Moved() {
		t.Errorf("move %+v err %v from a floored donor", mv, err)
	}
}

func TestHysteresisBlocksMarginalMoves(t *testing.T) {
	// Gain 1.0 vs loss 0.9: under the default 25% hysteresis the gap is
	// noise; with hysteresis disabled it is a move.
	mk := func() (*fakeHolder, *fakeHolder) {
		return &fakeHolder{name: "a", budget: 4096, floor: 512, margin: Marginal{Gain: 1.0, Loss: 1.0}},
			&fakeHolder{name: "b", budget: 4096, floor: 512, margin: Marginal{Gain: 0.9, Loss: 0.9}}
	}
	ha, hb := mk()
	a, err := New(Config{StepBytes: 1024}, ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if mv, err := a.Cycle(); err != nil || mv.Moved() {
		t.Errorf("move %+v err %v through a 1.0-vs-0.9 gap under hysteresis", mv, err)
	}
	ha, hb = mk()
	a, err = New(Config{StepBytes: 1024, Hysteresis: -1}, ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if mv, err := a.Cycle(); err != nil || !mv.Moved() {
		t.Errorf("move %+v err %v, want a move with hysteresis disabled", mv, err)
	}
}

func TestZeroGainNeverMoves(t *testing.T) {
	ha := &fakeHolder{name: "a", budget: 4096, floor: 512}
	hb := &fakeHolder{name: "b", budget: 4096, floor: 512}
	a, err := New(Config{}, ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if mv, err := a.Cycle(); err != nil || mv.Moved() {
			t.Fatalf("cycle %d: move %+v err %v with nothing to gain", i, mv, err)
		}
	}
	st := a.Stats()
	if st.Cycles != 5 || st.Moves != 0 || st.BytesMoved != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestConservationUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ha := &fakeHolder{name: "a", budget: 16384, floor: 1024}
	hb := &fakeHolder{name: "b", budget: 16384, floor: 1024}
	hc := &fakeHolder{name: "c", budget: 16384, floor: 1024}
	a, err := New(Config{StepBytes: 2048}, ha, hb, hc)
	if err != nil {
		t.Fatal(err)
	}
	wall := totalBytes(ha, hb, hc)
	for i := 0; i < 200; i++ {
		ha.margin = Marginal{Gain: rng.Float64() * 10, Loss: rng.Float64() * 10}
		hb.margin = Marginal{Gain: rng.Float64() * 10, Loss: rng.Float64() * 10}
		hc.margin = Marginal{Gain: rng.Float64() * 10, Loss: rng.Float64() * 10}
		if _, err := a.Cycle(); err != nil {
			t.Fatal(err)
		}
		if got := totalBytes(ha, hb, hc); got != wall {
			t.Fatalf("cycle %d: total %d bytes, want %d — arbitration leaked", i, got, wall)
		}
		for _, h := range []*fakeHolder{ha, hb, hc} {
			if h.budget < h.floor {
				t.Fatalf("cycle %d: holder %s under its floor (%d < %d)", i, h.name, h.budget, h.floor)
			}
		}
	}
	if a.Stats().Moves == 0 {
		t.Error("churn produced no moves at all")
	}
}

func TestGrowFailureRollsBackDonor(t *testing.T) {
	boom := errors.New("boom")
	hungry := &fakeHolder{name: "a", budget: 4096, floor: 512, margin: Marginal{Gain: 9, Loss: 9}, growErr: boom}
	donor := &fakeHolder{name: "b", budget: 4096, floor: 512, margin: Marginal{}}
	a, err := New(Config{StepBytes: 1024}, hungry, donor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Cycle(); !errors.Is(err, boom) {
		t.Fatalf("Cycle error = %v, want wrapped boom", err)
	}
	if donor.budget != 4096 || hungry.budget != 4096 {
		t.Errorf("grants %d/%d after failed grow, want both restored to 4096", hungry.budget, donor.budget)
	}
	if a.Stats().Errors != 1 || a.Stats().Moves != 0 {
		t.Errorf("stats %+v after failed grow", a.Stats())
	}
}

func TestStatsAndTelemetry(t *testing.T) {
	hungry := &fakeHolder{name: "model", budget: 8192, floor: 1024, margin: Marginal{Gain: 5, Loss: 5}}
	idle := &fakeHolder{name: "cache", budget: 8192, floor: 1024, margin: Marginal{}}
	a, err := New(Config{StepBytes: 2048}, hungry, idle)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	a.Instrument(reg)
	if _, err := a.Cycle(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Cycles != 1 || st.Moves != 1 || st.BytesMoved != 2048 {
		t.Errorf("stats %+v", st)
	}
	if st.TotalBytes() != 2*8192 {
		t.Errorf("TotalBytes = %d", st.TotalBytes())
	}
	if st.Holders[0].Name != "model" || st.Holders[0].Gain != 5 || st.Holders[1].Loss != 0 {
		t.Errorf("holder stats %+v", st.Holders)
	}
	// Registry lookups return the same series the arbiter publishes into.
	if v := reg.Counter("mlq_budget_moves_total", "").Value(); v != 1 {
		t.Errorf("mlq_budget_moves_total = %d", v)
	}
	if v := reg.Counter("mlq_budget_moved_bytes_total", "").Value(); v != 2048 {
		t.Errorf("mlq_budget_moved_bytes_total = %d", v)
	}
	if v := reg.Gauge("mlq_budget_holder_bytes", "", telemetry.L("holder", "model")).Value(); v != 8192+2048 {
		t.Errorf("mlq_budget_holder_bytes{holder=model} = %g", v)
	}
	if v := reg.Gauge("mlq_budget_marginal_gain", "", telemetry.L("holder", "model")).Value(); v != 5 {
		t.Errorf("mlq_budget_marginal_gain{holder=model} = %g", v)
	}
}

// trainedModel returns a budget-bound MLQ model fed n observations of a
// spatially varying cost surface.
func trainedModel(t *testing.T, limit int, n int) *core.MLQ {
	t.Helper()
	m, err := core.NewMLQ(quadtree.Config{
		Region:      geom.UnitCube(2),
		MaxDepth:    6,
		MemoryLimit: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		if err := m.Observe(p, 10*p[0]+100*p[1]*p[1]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestModelHolderMarginals(t *testing.T) {
	m := trainedModel(t, 40*quadtree.DefaultNodeBytes, 0)
	h := NewModelHolder("model", m, 0)
	if h.FloorBytes() != quadtree.DefaultNodeBytes {
		t.Errorf("floor %d, want one node (%d)", h.FloorBytes(), quadtree.DefaultNodeBytes)
	}
	if h.BudgetBytes() != 40*quadtree.DefaultNodeBytes {
		t.Errorf("budget %d, want the tree's limit", h.BudgetBytes())
	}
	// Nothing observed yet: no demand either way.
	if got := h.Tick(quadtree.DefaultNodeBytes); got != (Marginal{}) {
		t.Errorf("untrained marginal %+v, want zero", got)
	}

	// Train until budget-bound; the insert delta lands in this Tick.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		if err := m.Observe(p, 10*p[0]+100*p[1]*p[1]); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Tick(4 * quadtree.DefaultNodeBytes)
	if got.Gain <= 0 || got.Loss != got.Gain {
		t.Errorf("budget-bound marginal %+v, want Gain == Loss > 0", got)
	}
	// No new inserts since: the model has no live demand.
	if got := h.Tick(4 * quadtree.DefaultNodeBytes); got != (Marginal{}) {
		t.Errorf("idle marginal %+v, want zero", got)
	}

	// A holder with a step of slack under its limit prices bytes at zero.
	if err := h.SetBudget(m.MemoryUsed() + 8*quadtree.DefaultNodeBytes); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if got := h.Tick(4 * quadtree.DefaultNodeBytes); got != (Marginal{}) {
		t.Errorf("slack marginal %+v, want zero", got)
	}
}

func TestModelHolderSetBudgetResizesTree(t *testing.T) {
	m := trainedModel(t, 60*quadtree.DefaultNodeBytes, 3000)
	h := NewModelHolder("model", m, 0)
	shrunk := 15 * quadtree.DefaultNodeBytes
	if err := h.SetBudget(shrunk); err != nil {
		t.Fatal(err)
	}
	if m.MemoryUsed() > shrunk || m.MemoryLimit() != shrunk || h.BudgetBytes() != shrunk {
		t.Errorf("used=%d limit=%d grant=%d after SetBudget(%d)",
			m.MemoryUsed(), m.MemoryLimit(), h.BudgetBytes(), shrunk)
	}
	if err := h.SetBudget(quadtree.DefaultNodeBytes - 1); err == nil {
		t.Error("sub-node grant accepted")
	}
}

func newCache(t *testing.T, pages, capacity int) *buffercache.Cache {
	t.Helper()
	s, err := pagestore.New(512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		id := s.Alloc()
		if err := s.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := buffercache.New(s, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHolderMarginals(t *testing.T) {
	c := newCache(t, 8, 2)
	h := NewCacheHolder("cache", c, 1)
	if h.FloorBytes() != 512 || h.BudgetBytes() != 2*512 {
		t.Errorf("floor=%d budget=%d", h.FloorBytes(), h.BudgetBytes())
	}
	// Thrash: cycle 4 pages through a 2-page cache twice. Round two is all
	// ghost hits — maximal demand for more bytes.
	for round := 0; round < 2; round++ {
		for id := pagestore.PageID(0); id < 4; id++ {
			if _, err := c.Get(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := h.Tick(1024)
	if got.Gain <= 0 {
		t.Errorf("thrashing cache gain %g, want > 0", got.Gain)
	}
	if got.Loss < got.Gain {
		t.Errorf("thrashing cache loss %g below its gain %g", got.Loss, got.Gain)
	}
	// No lookups since: no demand.
	if got := h.Tick(1024); got != (Marginal{}) {
		t.Errorf("idle marginal %+v, want zero", got)
	}
}

func TestCacheHolderNotFullIsFreeToShrink(t *testing.T) {
	c := newCache(t, 8, 6)
	h := NewCacheHolder("cache", c, 1)
	for id := pagestore.PageID(0); id < 2; id++ {
		if _, err := c.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(0); err != nil { // a hit, so dHits > 0
		t.Fatal(err)
	}
	got := h.Tick(1024)
	if got.Loss != 0 {
		t.Errorf("half-empty cache loss %g, want 0 (unused pages are free)", got.Loss)
	}
}

func TestCacheHolderSetBudgetRoundsToPagesConservingBytes(t *testing.T) {
	c := newCache(t, 8, 4)
	h := NewCacheHolder("cache", c, 1)
	grant := 2*512 + 100
	if err := h.SetBudget(grant); err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 2 {
		t.Errorf("capacity %d pages, want 2", c.Capacity())
	}
	if h.BudgetBytes() != grant {
		t.Errorf("BudgetBytes %d, want the full %d-byte grant (remainder carried)", h.BudgetBytes(), grant)
	}
	if err := h.SetBudget(511); err == nil {
		t.Error("sub-page grant accepted")
	}
}

func TestArbiterOverRealHolders(t *testing.T) {
	// A budget-bound model and a cold, oversized cache: the wall should
	// flow bytes from the cache to the model and never leak.
	m := trainedModel(t, 20*quadtree.DefaultNodeBytes, 2000)
	c := newCache(t, 64, 32)
	mh := NewModelHolder("model", m, 0)
	ch := NewCacheHolder("cache", c, 2)
	a, err := New(Config{StepBytes: 2 * quadtree.DefaultNodeBytes}, mh, ch)
	if err != nil {
		t.Fatal(err)
	}
	wall := mh.BudgetBytes() + ch.BudgetBytes()
	rng := rand.New(rand.NewSource(11))
	moved := 0
	for cycle := 0; cycle < 30; cycle++ {
		for i := 0; i < 50; i++ {
			p := geom.Point{rng.Float64(), rng.Float64()}
			if err := m.Observe(p, 10*p[0]+100*p[1]*p[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get(pagestore.PageID(rng.Intn(64))); err != nil {
				t.Fatal(err)
			}
		}
		mv, err := a.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if mv.Moved() {
			moved++
			if mv.To != "model" {
				t.Errorf("cycle %d: bytes flowed to %q, want the budget-bound model", cycle, mv.To)
			}
		}
		if got := mh.BudgetBytes() + ch.BudgetBytes(); got != wall {
			t.Fatalf("cycle %d: wall %d bytes, want %d", cycle, got, wall)
		}
	}
	if moved == 0 {
		t.Error("no bytes moved toward the starved model")
	}
	if m.MemoryLimit() <= 20*quadtree.DefaultNodeBytes {
		t.Error("model budget did not grow")
	}
}

func TestReversalGuardBlocksPingPong(t *testing.T) {
	a := &fakeHolder{name: "a", budget: 8192, floor: 0, margin: Marginal{Gain: 5, Loss: 5}}
	b := &fakeHolder{name: "b", budget: 8192, floor: 0, margin: Marginal{}}
	arb, err := New(Config{StepBytes: 1024, Hysteresis: -1, ReversalGuard: 3}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := arb.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if mv.From != "b" || mv.To != "a" || mv.Bytes != 1024 {
		t.Fatalf("first cycle moved %+v, want 1024 b->a", mv)
	}

	// Flip the marginals: the profitable move is now the exact reverse, and
	// the guard must hold it off for ReversalGuard cycles.
	a.margin = Marginal{}
	b.margin = Marginal{Gain: 5, Loss: 5}
	for i := 0; i < 3; i++ {
		mv, err = arb.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if mv.Moved() {
			t.Fatalf("guarded cycle %d moved %+v, want no move", i, mv)
		}
	}
	mv, err = arb.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if mv.From != "a" || mv.To != "b" || mv.Bytes != 1024 {
		t.Fatalf("post-guard cycle moved %+v, want 1024 a->b", mv)
	}
}

func TestReversalGuardAllowsSameDirection(t *testing.T) {
	a := &fakeHolder{name: "a", budget: 8192, floor: 0, margin: Marginal{Gain: 5, Loss: 5}}
	b := &fakeHolder{name: "b", budget: 8192, floor: 0, margin: Marginal{}}
	arb, err := New(Config{StepBytes: 1024, Hysteresis: -1, ReversalGuard: 100}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mv, err := arb.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if mv.From != "b" || mv.To != "a" || mv.Bytes != 1024 {
			t.Fatalf("cycle %d moved %+v, want 1024 b->a (guard must not block repeats)", i, mv)
		}
	}
}

func TestReversalGuardDisabled(t *testing.T) {
	a := &fakeHolder{name: "a", budget: 8192, floor: 0, margin: Marginal{Gain: 5, Loss: 5}}
	b := &fakeHolder{name: "b", budget: 8192, floor: 0, margin: Marginal{}}
	arb, err := New(Config{StepBytes: 1024, Hysteresis: -1, ReversalGuard: -1}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mv, err := arb.Cycle(); err != nil || mv.To != "a" {
		t.Fatalf("first cycle: %+v, %v", mv, err)
	}
	a.margin = Marginal{}
	b.margin = Marginal{Gain: 5, Loss: 5}
	mv, err := arb.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if mv.From != "a" || mv.To != "b" {
		t.Fatalf("disabled guard blocked the reverse move: %+v", mv)
	}
}
