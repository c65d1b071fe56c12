package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/engine"
	"mlq/internal/geom"
	"mlq/internal/metrics"
	"mlq/internal/quadtree"
	"mlq/internal/spatialdb"
	"mlq/internal/textdb"
)

// loop-real is the paper's Fig. 1 loop as a DBMS user runs it: each op is
// one rank-ordered query over a batch of rows with three UDF predicates
// against the text and spatial databases, each predicate with an MLQ-L
// cost model at the paper's 1.8 KB.
const (
	lrBatch      = 64       // rows per query
	lrTables     = 1024     // distinct pre-generated row batches, cycled
	lrDetOps     = 250      // deterministic counts cover the first lrDetOps queries
	lrMeasure    = 6144     // queries measured per phase: six passes over the tables
	lrSampleEach = 16       // every lrSampleEach-th query is replayed as a check
	lrModelBytes = 1843     // the paper's 1.8 KB model budget
	lrDataSeed   = 20040314 // the databases are a fixed fixture; --seed draws the queries
	lrPredPasses = 5        // block-timed predict passes over every table, median taken
)

// lrSystem is one built system under test: the databases, the three
// predicates with their models, and the counters the benchmark's own
// wrappers keep around each layer call.
type lrSystem struct {
	tdb    *textdb.DB
	sdb    *spatialdb.DB
	preds  []*engine.Predicate
	models []*lrModel

	execErrs       int64       // UDF executions that returned an error
	observed       []int64     // Observe call durations of every model, ns
	nae            metrics.NAE // online prediction error of every model
	tr             *tracer     // nil outside the traced phase
	query          int32       // current query span id while tracing
	tracedPredicts int64       // Predict calls made while tracing
}

// lrModel wraps a predicate's MLQ to keep the online prediction error and
// to time the feedback call; the engine sees it as the core.Model.
type lrModel struct {
	sys    *lrSystem
	mlq    *core.MLQ
	pred   float64
	predOK bool
}

func (m *lrModel) Name() string { return m.mlq.Name() }

// Predict is not timed here: one call is far below a microsecond, so its
// cost is measured in blocks outside the queries (lrPredictNS) and only
// the calls are counted while tracing.
func (m *lrModel) Predict(p geom.Point) (float64, bool) {
	if m.sys.tr != nil {
		m.sys.tracedPredicts++
	}
	v, ok := m.mlq.Predict(p)
	// A non-finite prediction is no prediction: the engine would discard
	// it and plan from the running averages either way.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, ok = 0, false
	}
	m.pred, m.predOK = v, ok
	return v, ok
}

func (m *lrModel) Observe(p geom.Point, actual float64) error {
	if m.predOK {
		m.sys.nae.Add(m.pred, actual)
		m.predOK = false
	}
	var id int32
	if tr := m.sys.tr; tr != nil {
		id = tr.begin(spModelObserve, m.sys.query)
	}
	t0 := time.Now()
	err := m.mlq.Observe(p, actual)
	m.sys.observed = append(m.sys.observed, int64(time.Since(t0)))
	if id != 0 {
		m.sys.tr.end(id)
	}
	return err
}

// exec wraps a UDF call: it times the execution span and counts errors.
func (s *lrSystem) exec(f func(engine.Row) (bool, float64, error)) func(engine.Row) (bool, float64) {
	return func(row engine.Row) (bool, float64) {
		var id int32
		if s.tr != nil {
			id = s.tr.begin(spUDFExec, s.query)
		}
		ok, cost, err := f(row)
		if id != 0 {
			s.tr.end(id)
		}
		if err != nil {
			s.execErrs++
			return false, 0
		}
		return ok, cost
	}
}

// lrPredicates builds the three predicates over the databases, the way
// cmd/udfsim builds its two. withModels false gives the model-free copies
// the correctness replay runs with.
func (s *lrSystem) lrPredicates(withModels bool) ([]*engine.Predicate, []*lrModel, error) {
	tdb, sdb := s.tdb, s.sdb
	vocab := tdb.VocabSize()
	regions := [][2]geom.Point{
		{{0, 0}, {1000, 1000}},
		{{0}, {float64(vocab)}},
		{{0, 0, 5}, {1000, 1000, 30}},
	}
	preds := []*engine.Predicate{
		{
			// At least one urban area inside a 40x40 window.
			Name: "NearUrbanArea",
			Exec: s.exec(func(row engine.Row) (bool, float64, error) {
				objs, st, err := sdb.Window(row[0]-20, row[1]-20, 40, 40)
				return len(objs) > 0, st.CPU + 10*st.IO, err
			}),
			Point: func(row engine.Row) geom.Point { return geom.Point{row[0], row[1]} },
		},
		{
			// Two rare keywords co-occur in at least 3 documents.
			Name: "KeywordsCooccur",
			Exec: s.exec(func(row engine.Row) (bool, float64, error) {
				w := vocab/2 + int(row[2])/2
				docs, st, err := tdb.SearchSimple([]int{w, vocab/2 + (w+37)%(vocab/2)})
				return len(docs) >= 3, st.CPU + 10*st.IO, err
			}),
			Point: func(row engine.Row) geom.Point { return geom.Point{row[2]} },
		},
		{
			// Fewer than 40 objects within radius r: a quiet neighbourhood.
			Name: "QuietRange",
			Exec: s.exec(func(row engine.Row) (bool, float64, error) {
				objs, st, err := sdb.Range(row[0], row[1], row[3])
				return len(objs) < 40, st.CPU + 10*st.IO, err
			}),
			Point: func(row engine.Row) geom.Point { return geom.Point{row[0], row[1], row[3]} },
		},
	}
	if !withModels {
		return preds, nil, nil
	}
	models := make([]*lrModel, len(preds))
	for i, p := range preds {
		region, err := geom.NewRect(regions[i][0], regions[i][1])
		if err != nil {
			return nil, nil, err
		}
		mlq, err := core.NewMLQ(quadtree.Config{Region: region, Strategy: quadtree.Lazy, MemoryLimit: lrModelBytes})
		if err != nil {
			return nil, nil, err
		}
		models[i] = &lrModel{sys: s, mlq: mlq}
		p.Model = models[i]
	}
	return preds, models, nil
}

func buildLoopReal() (*lrSystem, error) {
	tdb, err := textdb.Generate(textdb.Config{Seed: lrDataSeed})
	if err != nil {
		return nil, err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: lrDataSeed + 1})
	if err != nil {
		return nil, err
	}
	s := &lrSystem{tdb: tdb, sdb: sdb}
	s.preds, s.models, err = s.lrPredicates(true)
	return s, err
}

// lrTablesFor draws the query stream: row parameters cluster around a hot
// city centre (as in cmd/udfsim), with a keyword rank and a search radius.
func lrTablesFor(seed int64, vocab int) []*engine.Table {
	rng := rand.New(rand.NewSource(seed))
	tables := make([]*engine.Table, lrTables)
	for t := range tables {
		rows := make([]engine.Row, lrBatch)
		for i := range rows {
			x := clamp(500+rng.NormFloat64()*120, 0, 999)
			y := clamp(500+rng.NormFloat64()*120, 0, 999)
			rank := rng.Float64() * float64(vocab)
			r := 5 + rng.Float64()*25
			rows[i] = engine.Row{x, y, rank, r}
		}
		tables[t] = &engine.Table{Name: fmt.Sprintf("q%d", t), Rows: rows}
	}
	return tables
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// lrCounts is a reading of every deterministic counter of the system.
type lrCounts struct {
	rows, evals                  int64
	work                         float64
	hits, misses, evictions      int64
	compressions, removed, nodes int64
	compressTime                 time.Duration
	nae                          metrics.NAE
}

func (s *lrSystem) counts() lrCounts {
	var c lrCounts
	for _, p := range s.preds {
		c.evals += p.Evaluated()
	}
	for _, cache := range []*buffercache.Cache{s.tdb.Cache(), s.sdb.Cache()} {
		c.hits += cache.Hits()
		c.misses += cache.Misses()
		c.evictions += cache.Evictions()
	}
	for _, m := range s.models {
		t := m.mlq.Tree()
		c.compressions += t.Compressions()
		c.removed += t.RemovedNodes()
		c.nodes += int64(t.NodeCount())
		c.compressTime += t.CompressTime()
	}
	return c
}

func runLoopReal(o options) (result, error) {
	sys, setupS, err := medianSetup(3, buildLoopReal, func(*lrSystem) error { return nil })
	if err != nil {
		return result{}, err
	}
	tables := lrTablesFor(o.seed, sys.tdb.VocabSize())

	// A sampled query keeps only its table and a digest of the rows it
	// selected, so the check allocates and copies nothing in the timed loop.
	type sample struct {
		table  int
		digest uint64
	}
	samples := make([]sample, 0, 2*lrMeasure/lrSampleEach+1)
	var det lrCounts // counts over the first lrDetOps queries
	var rows int64
	var work float64
	op := func(i int64) bool {
		t := int(i % lrTables)
		var id int32
		if sys.tr != nil {
			id = sys.tr.begin(spQuery, 0)
			sys.query = id
		}
		errsBefore := sys.execErrs
		res, err := engine.ExecuteQuery(tables[t], sys.preds, engine.OrderByRank)
		if id != 0 {
			sys.tr.end(id)
		}
		if i < lrDetOps {
			rows += int64(len(tables[t].Rows))
			work += res.TotalCost
			if i == lrDetOps-1 {
				det = sys.counts()
				det.rows, det.work, det.nae = rows, work, sys.nae
			}
		}
		if i%lrSampleEach == 0 && err == nil {
			samples = append(samples, sample{t, rowsDigest(res.Rows)})
		}
		return err == nil && !res.Faults.Any() && sys.execErrs == errsBefore
	}

	untracedDur, tracedDur := o.phaseSplit()
	sys.observed = make([]int64, 0, lrMeasure*lrBatch*len(sys.preds))
	observedLen := func() int { return len(sys.observed) }
	a := runPhase(untracedDur, lrMeasure, 0, op, observedLen, nil)
	attempted, failed := a.run(), a.failed
	m := map[string]metric{}
	var tr *tracer
	var b phase
	if o.trace {
		sys.observed = sys.observed[:0]
		tr = newTracer()
		b = runPhase(tracedDur, lrMeasure, a.run(), op, nil, tracedSlices(tr, func(t *tracer) { sys.tr = t }))
		sys.tr = nil
		attempted += b.run()
		failed += b.failed
	}

	// Correctness gate: replay the sampled queries with the naive plan on
	// fresh, model-free predicates; they must select the same rows.
	plain, _, err := sys.lrPredicates(false)
	if err != nil {
		return result{}, err
	}
	for _, s := range samples {
		errsBefore := sys.execErrs
		res, err := engine.ExecuteQuery(tables[s.table], plain, engine.OrderAsGiven)
		attempted++
		if err != nil || res.Faults.Any() || sys.execErrs != errsBefore || rowsDigest(res.Rows) != s.digest {
			failed++
		}
	}

	if !o.trace {
		m["setup_s"] = metric{setupS, "s"}
		m["ops_per_s"] = metric{a.rate(1), "1/s"}
		m["op_p50_us"] = metric{percentile(a.lat, 0.5, time.Microsecond), "us"}
		m["visible_p50_ms"] = metric{blockP50(sys.observed[:a.extEnd()], obsBlock, time.Millisecond), "ms"}
		m["cpu_ms_per_kop"] = metric{a.cpuPerKop(1), "ms"}
		m["nae"] = metric{det.nae.Value(), "ratio"}
		a.lat, sys.observed = nil, nil
		m["heap_mb"] = metric{heapMiB(), "MiB"}
		runtime.KeepAlive(sys)
	} else {
		spans := tr.reduce()
		predictNS := lrPredictNS(sys, tables)
		queries := spans["query"].self
		// The query's self time less its predictions, which are not spans.
		m["engine.self_us"] = metric{(mean(queries) - float64(sys.tracedPredicts)/float64(len(queries))*predictNS) / 1e3, "us"}
		m["udf.exec_us_p50"] = metric{percentile(spans["udf.exec"].dur, 0.5, time.Microsecond), "us"}
		m["udf.exec_us_p99"] = metric{percentile(spans["udf.exec"].dur, 0.99, time.Microsecond), "us"}
		m["quadtree.predict_ns"] = metric{predictNS, "ns"}
		m["quadtree.observe_us_p50"] = metric{percentile(spans["model.observe"].dur, 0.5, time.Microsecond), "us"}
		m["quadtree.observe_us_p99"] = metric{percentile(spans["model.observe"].dur, 0.99, time.Microsecond), "us"}
		m["engine.evals_per_row"] = metric{float64(det.evals) / float64(det.rows), "count"}
		m["engine.work_per_row"] = metric{det.work / float64(det.rows), "units"}
		m["udf.execs"] = metric{float64(det.evals), "count"}
		m["buffercache.hit_ratio"] = metric{float64(det.hits) / float64(det.hits+det.misses), "ratio"}
		m["buffercache.misses_per_exec"] = metric{float64(det.misses) / float64(det.evals), "count"}
		m["buffercache.evictions_per_exec"] = metric{float64(det.evictions) / float64(det.evals), "count"}
		m["quadtree.compressions"] = metric{float64(det.compressions), "count"}
		m["quadtree.compress_ms"] = metric{float64(det.compressTime) / float64(time.Millisecond), "ms"}
		m["quadtree.removed_nodes"] = metric{float64(det.removed), "count"}
		m["quadtree.nodes"] = metric{float64(det.nodes), "count"}
		m["client.op_p99_us"] = metric{a.sliceP99(a.lat, opRange, time.Microsecond), "us"}
		m["client.op_samples"] = metric{float64(len(a.lat)), "count"}
		a.runtimeMetricsOf(m, 1)
		if err := finishTrace(tr, o, "loop-real", b, m); err != nil {
			return result{}, err
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: completeLayers(m, o.trace)}, nil
}

// lrPredictNS is the mean cost of one model Predict, timed in blocks
// outside any query: each pass runs every table's row points through the
// three models, and the median pass is divided by its call count. The
// points are built before the clock starts.
func lrPredictNS(sys *lrSystem, tables []*engine.Table) float64 {
	var pts [][]geom.Point
	for i, p := range sys.preds {
		pts = append(pts, nil)
		for _, t := range tables {
			for _, row := range t.Rows {
				pts[i] = append(pts[i], p.Point(row))
			}
		}
	}
	passes := make([]float64, 0, lrPredPasses)
	for k := 0; k < lrPredPasses; k++ {
		var calls int
		t0 := time.Now()
		for i, m := range sys.models {
			for _, pt := range pts[i] {
				m.mlq.Predict(pt)
			}
			calls += len(pts[i])
		}
		passes = append(passes, float64(time.Since(t0))/float64(calls))
	}
	return median(passes)
}

// rowsDigest is an FNV-1a hash of the rows' values, in order.
func rowsDigest(rows []engine.Row) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(rows)))
	for _, r := range rows {
		mix(uint64(len(r)))
		for _, v := range r {
			mix(math.Float64bits(v))
		}
	}
	return h
}
