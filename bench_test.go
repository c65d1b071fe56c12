// Benchmarks regenerating a representative cell of every figure in the
// paper's evaluation (run cmd/mlqbench for the full tables), plus
// micro-benchmarks of the operations whose costs the paper reports (APC,
// AUC: prediction, insertion, compression).
package mlq_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/engine"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
	"mlq/internal/harness"
	"mlq/internal/histogram"
	"mlq/internal/leo"
	"mlq/internal/nncurve"
	"mlq/internal/pagestore"
	"mlq/internal/quadtree"
	"mlq/internal/spatialdb"
	"mlq/internal/synthetic"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
	"mlq/internal/udf"
)

// benchOpts keeps each figure-cell iteration around a few milliseconds.
func benchOpts() harness.Options {
	return harness.Options{Queries: 1000, TrainQueries: 1000, Seed: 1}
}

var (
	benchSurfaceOnce sync.Once
	benchSurface     *synthetic.Surface

	benchUDFsOnce sync.Once
	benchTextUDF  udf.UDF
	benchWinUDF   udf.UDF
)

func surface(b *testing.B) *synthetic.Surface {
	benchSurfaceOnce.Do(func() {
		s, err := synthetic.Generate(synthetic.Config{Seed: 1, NumPeaks: 50})
		if err != nil {
			b.Fatal(err)
		}
		benchSurface = s
	})
	return benchSurface
}

func realUDFs(b *testing.B) (udf.UDF, udf.UDF) {
	benchUDFsOnce.Do(func() {
		tdb, err := textdb.Generate(textdb.Config{
			NumDocs: 800, VocabSize: 500, MeanDocLen: 60,
			PageSize: 1024, CachePages: 32, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		sdb, err := spatialdb.Generate(spatialdb.Config{
			Extent: 500, NumObjects: 5000, GridSize: 16,
			PageSize: 1024, CachePages: 32, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchTextUDF = tdb.UDFs()[0]
		benchWinUDF = sdb.UDFs()[1]
	})
	return benchTextUDF, benchWinUDF
}

// BenchmarkFig8Cell measures one cell of Figure 8 (synthetic accuracy) per
// method: a full predict-observe pass over the workload.
func BenchmarkFig8Cell(b *testing.B) {
	s := surface(b)
	for _, m := range harness.Methods() {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunSyntheticNAE(m, s, dist.KindUniform, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Cell measures one real-UDF CPU-accuracy cell of Figure 9,
// executing the UDF for every query.
func BenchmarkFig9Cell(b *testing.B) {
	text, win := realUDFs(b)
	opts := benchOpts()
	opts.Queries, opts.TrainQueries = 300, 300
	for _, u := range []udf.UDF{text, win} {
		b.Run(u.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunRealNAE(harness.MLQE, u, dist.KindUniform, harness.CPUCost, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Breakdown measures the Figure 10(b) modeling-cost run.
func BenchmarkFig10Breakdown(b *testing.B) {
	surface(b)
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig10Synthetic(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11aCell measures one disk-IO accuracy cell of Figure 11(a).
func BenchmarkFig11aCell(b *testing.B) {
	_, win := realUDFs(b)
	opts := benchOpts()
	opts.Queries, opts.TrainQueries = 300, 300
	opts.Beta = 10
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunRealNAE(harness.MLQE, win, dist.KindUniform, harness.IOCost, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11bCell measures one noise-probability cell of Figure 11(b).
func BenchmarkFig11bCell(b *testing.B) {
	s := surface(b)
	noisy, err := synthetic.NewNoisy(s, 0.3, 9)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	opts.Beta = 10
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunSyntheticNAE(harness.MLQE, noisy, dist.KindUniform, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Curves measures the Figure 12 learning-curve run.
func BenchmarkFig12Curves(b *testing.B) {
	surface(b)
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig12Synthetic(10, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblateGamma measures one ablation sweep point (γ).
func BenchmarkAblateGamma(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Ablate("gamma", []float64{0.01}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: the operations behind APC and AUC (Fig. 10). ---

func newBenchTree(tb testing.TB, strat quadtree.Strategy, memNodes int) *quadtree.Tree {
	t, err := quadtree.New(quadtree.Config{
		Region:      geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1000, 1000, 1000, 1000}),
		Strategy:    strat,
		MemoryLimit: memNodes * quadtree.DefaultNodeBytes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func randPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
	}
	return pts
}

// clusteredPoints returns n points in [0, 1000)^4 normally scattered
// (σ = 50) around a centre that moves to a fresh uniform draw every 2048
// points.
func clusteredPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	var centre geom.Point
	for i := range pts {
		if i%2048 == 0 {
			centre = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
		}
		p := make(geom.Point, 4)
		for d := range p {
			p[d] = min(max(centre[d]+rng.NormFloat64()*50, 0), 999)
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkInsert measures a single model update (IC + amortized CC) under
// the paper's 1.8 KB budget, for both strategies.
func BenchmarkInsert(b *testing.B) {
	for _, strat := range []quadtree.Strategy{quadtree.Eager, quadtree.Lazy} {
		b.Run(strat.String(), func(b *testing.B) {
			t := newBenchTree(b, strat, 92)
			pts := randPoints(4096, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.Insert(pts[i%len(pts)], float64(i%10000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredict measures a single prediction (the paper's APC) on a tree
// at its memory limit.
func BenchmarkPredict(b *testing.B) {
	t := newBenchTree(b, quadtree.Eager, 92)
	pts := randPoints(4096, 8)
	for i := 0; i < 20000; i++ {
		t.Insert(pts[i%len(pts)], float64(i%10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.PredictBeta(pts[i%len(pts)], 1)
	}
}

// BenchmarkPredictResize pins the memory wall's hot-path contract: a tree
// whose budget has been moved around by live Resize calls predicts at the
// same speed as one that never resized, because Predict never reads the
// live limit — Resize only adjusts the limit and evicts or regrows nodes
// at the point of the call. Must stay within noise of BenchmarkPredict.
func BenchmarkPredictResize(b *testing.B) {
	t := newBenchTree(b, quadtree.Eager, 92)
	pts := randPoints(4096, 8)
	for i := 0; i < 20000; i++ {
		t.Insert(pts[i%len(pts)], float64(i%10000))
	}
	// Walk the budget down, up, and back to where BenchmarkPredict sits, so
	// the measured tree has lived through the arbiter's whole move cycle.
	for _, nodes := range []int{46, 138, 92} {
		if err := t.Resize(nodes * quadtree.DefaultNodeBytes); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		t.Insert(pts[i%len(pts)], float64(i%10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.PredictBeta(pts[i%len(pts)], 1)
	}
}

// BenchmarkPredictParallel measures Predict throughput under the paper's
// live feedback loop (Fig. 1: predict, execute, observe) through lock-free
// reads of a published snapshot (core.Publisher). Each of N predictor
// goroutines issues predictions and feeds back an observation for every
// tenth one; readers never wait, and observations drain through the
// batching writer. Snapshot-1 should be no slower than the single-threaded
// BenchmarkPredict path, and Snapshot-8 should scale with GOMAXPROCS.
func BenchmarkPredictParallel(b *testing.B) {
	newModel := func() *core.MLQ {
		m, err := core.NewMLQ(quadtree.Config{
			Region:      geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1000, 1000, 1000, 1000}),
			MemoryLimit: 92 * quadtree.DefaultNodeBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		train := randPoints(4096, 8)
		for i := 0; i < 20000; i++ {
			if err := m.Observe(train[i%len(train)], float64(i%10000)); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	pts := randPoints(4096, 8)
	for _, goroutines := range []int{1, 8} {
		b.Run(fmt.Sprintf("Snapshot-%d", goroutines), func(b *testing.B) {
			pub, err := core.NewPublisher(newModel(), core.PublisherConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer pub.Close()
			b.ResetTimer()
			per := b.N / goroutines
			if per == 0 {
				per = 1
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(off int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						p := pts[(off+i)%len(pts)]
						pub.Predict(p)
						if i%10 == 9 {
							pub.Observe(p, float64(i%10000))
						}
					}
				}(g * 131)
			}
			wg.Wait()
		})
	}
}

// BenchmarkPredictTelemetry measures the observability contract that
// TestInstrumentationAllocs pins: Predict carries no instrumentation at all
// (the engine counts predictions instead), so an instrumented tree predicts
// at the same speed as a bare one.
func BenchmarkPredictTelemetry(b *testing.B) {
	pts := randPoints(4096, 8)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var reg *telemetry.Registry
			if mode == "on" {
				reg = telemetry.New()
			}
			t := newPredictTree(b, pts, reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.PredictBeta(pts[i%len(pts)], 1)
			}
		})
	}
}

// BenchmarkPredictEvents measures the event-spine hot-path contract that
// TestInstrumentationAllocs pins: Predict emits no events and takes no
// recorder branch, so a publisher with the causal spine and flight recorder
// installed predicts at the same speed as one without. Emission happens only
// on the Observe/apply/publish paths, where one pointer check gates it.
func BenchmarkPredictEvents(b *testing.B) {
	pts := randPoints(4096, 8)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var rec *events.Recorder
			if mode == "on" {
				rec = events.New(events.Config{Seed: 1})
			}
			pub := newPredictPublisher(b, pts, rec)
			defer pub.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pub.Predict(pts[i%len(pts)])
			}
		})
	}
}

// TestInstrumentationAllocs pins the hot-path contract: a prediction
// allocates nothing, and instrumentation adds nothing to it. A bare tree's
// PredictBeta and a bare Publisher's Predict allocate exactly 0; a
// registry-instrumented tree and a Publisher with an events.Recorder
// installed allocate exactly as much as their bare counterparts.
func TestInstrumentationAllocs(t *testing.T) {
	pts := randPoints(4096, 8)
	treeAllocs := func(reg *telemetry.Registry) float64 {
		tr := newPredictTree(t, pts, reg)
		i := 0
		return testing.AllocsPerRun(1000, func() {
			tr.PredictBeta(pts[i%len(pts)], 1)
			i++
		})
	}
	bare, on := treeAllocs(nil), treeAllocs(telemetry.New())
	if bare != 0 {
		t.Errorf("bare tree PredictBeta allocates %v/op, want 0", bare)
	}
	if on != bare {
		t.Errorf("instrumented tree PredictBeta allocates %v/op, bare tree %v/op", on, bare)
	}

	pubAllocs := func(rec *events.Recorder) float64 {
		pub := newPredictPublisher(t, pts, rec)
		defer pub.Close()
		i := 0
		return testing.AllocsPerRun(1000, func() {
			pub.Predict(pts[i%len(pts)])
			i++
		})
	}
	bare, on = pubAllocs(nil), pubAllocs(events.New(events.Config{Seed: 1}))
	if bare != 0 {
		t.Errorf("bare Publisher.Predict allocates %v/op, want 0", bare)
	}
	if on != bare {
		t.Errorf("Publisher.Predict with a recorder allocates %v/op, without %v/op", on, bare)
	}
}

// TestSubstrateAllocs pins the real UDFs' substrate to its modelled work: a
// warm buffer-cache hit allocates nothing, nor does a steady-state miss that
// evicts, and a warm SearchSimple, Window or Range allocates only the result
// slice it returns.
func TestSubstrateAllocs(t *testing.T) {
	store, err := pagestore.New(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		store.Alloc()
	}
	cache, err := buffercache.New(store, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hit := testing.AllocsPerRun(1000, func() { _, _ = cache.Get(3) }); hit != 0 {
		t.Errorf("warm Cache.Get hit allocates %v/op, want 0", hit)
	}
	// Cycling over 16 pages through 8 frames misses and evicts every time;
	// AllocsPerRun's warm-up call plus one lap fill both lists first.
	next := 0
	cycle := func() {
		_, _ = cache.Get(pagestore.PageID(next % 16))
		next++
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	misses, evictions := cache.Misses(), cache.Evictions()
	if miss := testing.AllocsPerRun(1000, cycle); miss != 0 {
		t.Errorf("steady-state Cache.Get miss with eviction allocates %v/op, want 0", miss)
	}
	if cache.Misses()-misses != 1001 || cache.Evictions()-evictions != 1001 {
		t.Fatalf("cycle was not all misses with evictions: %d misses, %d evictions in 1001 lookups",
			cache.Misses()-misses, cache.Evictions()-evictions)
	}

	tdb, err := textdb.Generate(textdb.Config{NumDocs: 600, VocabSize: 300, MeanDocLen: 50, PageSize: 512, CachePages: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{NumObjects: 3000, PageSize: 512, CachePages: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	words := []int{0, 1, 4}
	queries := []struct {
		name string
		run  func() (int, error)
	}{
		{"SearchSimple", func() (int, error) {
			docs, _, err := tdb.SearchSimple(words)
			return len(docs), err
		}},
		{"Window", func() (int, error) {
			objs, _, err := sdb.Window(400, 400, 200, 200)
			return len(objs), err
		}},
		{"Range", func() (int, error) {
			objs, _, err := sdb.Range(500, 500, 120)
			return len(objs), err
		}},
	}
	for _, q := range queries {
		n, err := q.run()
		if err != nil || n == 0 {
			t.Fatalf("%s: %d results, err %v; want some", q.name, n, err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = q.run() }); got != 1 {
			t.Errorf("warm %s allocates %v/op, want 1 (its result slice)", q.name, got)
		}
	}
}

// newPredictTree is the prediction benchmarks' 92-node eager tree after
// 20,000 inserts, instrumented into reg when reg is non-nil.
func newPredictTree(tb testing.TB, pts []geom.Point, reg *telemetry.Registry) *quadtree.Tree {
	t := newBenchTree(tb, quadtree.Eager, 92)
	if reg != nil {
		t.Instrument(reg, telemetry.L("model", "bench"))
	}
	for i := 0; i < 20000; i++ {
		if err := t.Insert(pts[i%len(pts)], float64(i%10000)); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// newPredictPublisher is the prediction benchmarks' publisher over a trained
// 92-node MLQ, with the event spine installed when rec is non-nil.
func newPredictPublisher(tb testing.TB, pts []geom.Point, rec *events.Recorder) *core.Publisher {
	m, err := core.NewMLQ(quadtree.Config{
		Region:      geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1000, 1000, 1000, 1000}),
		MemoryLimit: 92 * quadtree.DefaultNodeBytes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := m.Observe(pts[i%len(pts)], float64(i%10000)); err != nil {
			tb.Fatal(err)
		}
	}
	pub, err := core.NewPublisher(m, core.PublisherConfig{Events: rec})
	if err != nil {
		tb.Fatal(err)
	}
	return pub
}

// BenchmarkCompress times one compression pass over a tree at its budget,
// in the two shapes perfbench runs: ~16 KiB, where a pass evicts one node,
// and ~1 MiB (~52k nodes), where it evicts 53. Each iteration compresses a
// fresh clone of the same tree, so every pass does the same work — and
// since a clone carries no victim set, every pass is the full rescan. The
// carried set's cost shows in BenchmarkInsertAtBudget.
func BenchmarkCompress(b *testing.B) {
	pts := randPoints(1<<16, 9)
	for _, c := range []struct {
		name  string
		bytes int
	}{{"16KiB", 16 << 10}, {"1MiB", 1 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			t := newBenchTree(b, quadtree.Lazy, c.bytes/quadtree.DefaultNodeBytes)
			for j := 0; t.Compressions() < 8; j++ {
				t.Insert(pts[j%len(pts)], float64(j%10000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := t.Clone()
				b.StartTimer()
				clone.Compress()
			}
		})
	}
}

// BenchmarkInsertAtBudget times steady-state inserts into a lazy tree
// already at its budget, at ~16 KiB (a pass every few inserts, evicting
// one node) and ~1 MiB (~52k nodes, 53 victims a pass): the insertion
// cost plus its amortized share of compression, with the victim set
// carried between passes as it is in a running model. The 1MiB-clustered
// case trains on uniform points and then inserts clustered ones, so the
// inserts between two passes revisit a few hot regions along many paths,
// as an optimizer's stream does. passes/op is the compression passes per
// insert.
func BenchmarkInsertAtBudget(b *testing.B) {
	uniform := randPoints(1<<16, 9)
	for _, c := range []struct {
		name  string
		bytes int
		pts   []geom.Point
	}{{"16KiB", 16 << 10, uniform}, {"1MiB", 1 << 20, uniform}, {"1MiB-clustered", 1 << 20, clusteredPoints(1<<16, 9)}} {
		b.Run(c.name, func(b *testing.B) {
			t := newBenchTree(b, quadtree.Lazy, c.bytes/quadtree.DefaultNodeBytes)
			j := 0
			for ; t.Compressions() < 64; j++ {
				t.Insert(uniform[j%len(uniform)], float64(j%10000))
			}
			pts := c.pts
			passes := t.Compressions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Insert(pts[j%len(pts)], float64(j%10000))
				j++
			}
			b.ReportMetric(float64(t.Compressions()-passes)/float64(b.N), "passes/op")
		})
	}
}

// BenchmarkHistogram measures SH training and prediction.
func BenchmarkHistogram(b *testing.B) {
	region := geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1000, 1000, 1000, 1000})
	pts := randPoints(5000, 10)
	samples := make([]histogram.Sample, len(pts))
	for i, p := range pts {
		samples[i] = histogram.Sample{Point: p, Value: float64(i % 1000)}
	}
	b.Run("Train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := histogram.Train(histogram.EquiHeight, histogram.Config{Region: region}, samples); err != nil {
				b.Fatal(err)
			}
		}
	})
	h, err := histogram.Train(histogram.EquiHeight, histogram.Config{Region: region}, samples)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Predict(pts[i%len(pts)])
		}
	})
}

// BenchmarkUDFExecution measures the substrate UDFs themselves — the
// denominator of Figure 10's normalization.
func BenchmarkUDFExecution(b *testing.B) {
	text, win := realUDFs(b)
	for _, u := range []udf.UDF{text, win} {
		b.Run(u.Name(), func(b *testing.B) {
			region := u.Region()
			src := dist.NewUniform(region, 11)
			pts := make([]geom.Point, 256)
			for i := range pts {
				pts[i] = src.Next()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := u.Execute(pts[i%len(pts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerQuery measures the end-to-end engine demo: predicate
// ordering with live cost-model feedback.
func BenchmarkOptimizerQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	table := &engine.Table{Name: "t"}
	for i := 0; i < 500; i++ {
		table.Rows = append(table.Rows, engine.Row{rng.Float64() * 100, rng.Float64() * 100})
	}
	for i := 0; i < b.N; i++ {
		m, err := core.NewMLQ(quadtree.Config{
			Region:      geomtest.MustRect(geom.Point{0}, geom.Point{100}),
			MemoryLimit: 1843,
		})
		if err != nil {
			b.Fatal(err)
		}
		preds := []*engine.Predicate{
			{
				Name:  "expensive",
				Exec:  func(r engine.Row) (bool, float64) { return true, 100 + r[0] },
				Point: func(r engine.Row) geom.Point { return geom.Point{r[0]} },
				Model: m,
			},
			{
				Name: "cheap",
				Exec: func(r engine.Row) (bool, float64) { return r[1] < 20, 1 },
			},
		}
		if _, err := engine.ExecuteQuery(table, preds, engine.OrderByRank); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNTrain measures the neural-network baseline's a-priori training
// cost (the paper's "very slow to train" claim, quantified).
func BenchmarkNNTrain(b *testing.B) {
	region := geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1000, 1000, 1000, 1000})
	pts := randPoints(1000, 21)
	samples := make([]histogram.Sample, len(pts))
	for i, p := range pts {
		samples[i] = histogram.Sample{Point: p, Value: p[0] + p[1]}
	}
	for i := 0; i < b.N; i++ {
		if _, err := nncurve.Train(nncurve.Config{
			Region: region, MemoryLimit: 1843, Epochs: 50, Seed: 1,
		}, samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLEOObserve measures the LEO-style model's per-feedback cost
// (log append plus amortized analysis pass).
func BenchmarkLEOObserve(b *testing.B) {
	region := geomtest.MustRect(geom.Point{0, 0, 0, 0}, geom.Point{1000, 1000, 1000, 1000})
	m, err := leo.New(leo.Config{Region: region})
	if err != nil {
		b.Fatal(err)
	}
	pts := randPoints(4096, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Observe(pts[i%len(pts)], float64(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialize measures model persistence (catalog writes at
// optimizer checkpoint time).
func BenchmarkSerialize(b *testing.B) {
	t := newBenchTree(b, quadtree.Eager, 92)
	pts := randPoints(4096, 23)
	for i := 0; i < 20000; i++ {
		t.Insert(pts[i%len(pts)], float64(i%10000))
	}
	b.Run("WriteTo", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if _, err := t.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.Run("Read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := quadtree.Read(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClone measures the snapshot cost for lock-free reader patterns.
func BenchmarkClone(b *testing.B) {
	t := newBenchTree(b, quadtree.Eager, 92)
	pts := randPoints(4096, 24)
	for i := 0; i < 20000; i++ {
		t.Insert(pts[i%len(pts)], float64(i%10000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Clone()
	}
}
