// Command udfsim runs the paper's motivating scenario end to end (§1): a
// query with two expensive UDF predicates — a spatial window search and a
// keyword text search — over a table of query parameters. It executes the
// query twice: once with the naive predicate order and once with the
// self-tuning, cost-model-driven rank order, and reports the speedup.
//
// This is the full Figure 1 loop in one binary: the optimizer consults the
// MLQ estimators, the engine executes the UDFs for real against the page
// store and buffer cache, and every actual cost feeds back into the models.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mlq/internal/core"
	"mlq/internal/engine"
	"mlq/internal/geom"
	"mlq/internal/quadtree"
	"mlq/internal/spatialdb"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
)

func main() {
	rows := flag.Int("rows", 3000, "table size (number of simulated queries)")
	seed := flag.Int64("seed", 1, "random seed")
	mem := flag.Int("mem", 1843, "cost-model memory limit in bytes")
	telemetryAddr := flag.String("telemetry", "", "serve live metrics on this address while the queries run (e.g. localhost:9090; empty disables)")
	flag.Parse()

	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.New()
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "udfsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving %s\n", srv.URL())
		defer srv.Close()
	}

	if err := run(*rows, *seed, *mem, reg); err != nil {
		fmt.Fprintln(os.Stderr, "udfsim:", err)
		os.Exit(1)
	}
}

func run(rows int, seed int64, mem int, reg *telemetry.Registry) error {
	fmt.Println("building substrates (text corpus + spatial map)...")
	tdb, err := textdb.Generate(textdb.Config{Seed: seed})
	if err != nil {
		return err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: seed + 1})
	if err != nil {
		return err
	}

	// The table: each row holds the parameters of one incoming request —
	// a map location (x, y) and a keyword rank. Rows cluster around a hot
	// city center, so the window search is expensive for most rows.
	rng := rand.New(rand.NewSource(seed + 2))
	table := &engine.Table{Name: "requests"}
	for i := 0; i < rows; i++ {
		x := 500 + rng.NormFloat64()*120
		y := 500 + rng.NormFloat64()*120
		rank := rng.Float64() * float64(tdb.VocabSize())
		table.Rows = append(table.Rows, engine.Row{clamp(x, 0, 999), clamp(y, 0, 999), rank})
	}

	newModel := func(lo, hi geom.Point) (core.Model, error) {
		region, err := geom.NewRect(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("model region: %w", err)
		}
		return core.NewMLQ(quadtree.Config{
			Region:      region,
			Strategy:    quadtree.Lazy,
			MemoryLimit: mem,
		})
	}

	build := func() ([]*engine.Predicate, error) {
		winModel, err := newModel(geom.Point{0, 0}, geom.Point{1000, 1000})
		if err != nil {
			return nil, err
		}
		textModel, err := newModel(geom.Point{0}, geom.Point{float64(tdb.VocabSize())})
		if err != nil {
			return nil, err
		}
		// Predicate 1 (expensive, unselective): "at least one urban
		// area within a 40x40 window of the request location".
		winPred := &engine.Predicate{
			Name: "NearUrbanArea",
			Exec: func(row engine.Row) (bool, float64) {
				objs, stats, err := sdb.Window(row[0]-20, row[1]-20, 40, 40)
				if err != nil {
					// No error channel in Exec: report on stderr and
					// fail the row instead of crashing the CLI with a
					// stack trace.
					fmt.Fprintln(os.Stderr, "udfsim: NearUrbanArea failed:", err)
					return false, 0
				}
				return len(objs) > 0, stats.CPU + 10*stats.IO
			},
			Point: func(row engine.Row) geom.Point { return geom.Point{row[0], row[1]} },
			Model: winModel,
		}
		// Predicate 2 (cheap, selective): "the request's two keywords
		// co-occur in at least 3 documents". Requests use the rarer
		// half of the vocabulary, so posting lists are short and the
		// search is cheap — the predicate a cost-aware plan runs first.
		textPred := &engine.Predicate{
			Name: "KeywordsCooccur",
			Exec: func(row engine.Row) (bool, float64) {
				w := tdb.VocabSize()/2 + int(row[2])/2
				docs, stats, err := tdb.SearchSimple([]int{w, tdb.VocabSize()/2 + (w+37)%(tdb.VocabSize()/2)})
				if err != nil {
					fmt.Fprintln(os.Stderr, "udfsim: KeywordsCooccur failed:", err)
					return false, 0
				}
				return len(docs) >= 3, stats.CPU + 10*stats.IO
			},
			Point: func(row engine.Row) geom.Point { return geom.Point{row[2]} },
			Model: textModel,
		}
		// Naive order: window search first (the plan a cost-blind
		// optimizer might pick since the predicate was written first).
		return []*engine.Predicate{winPred, textPred}, nil
	}

	fmt.Printf("executing query over %d rows, naive predicate order...\n", rows)
	naivePreds, err := build()
	if err != nil {
		return err
	}
	naive, err := engine.ExecuteQuery(table, naivePreds, engine.OrderAsGiven)
	if err != nil {
		return err
	}

	fmt.Println("executing the same query with self-tuning rank ordering...")
	tunedPreds, err := build()
	if err != nil {
		return err
	}
	// Only the self-tuned plan is instrumented: its predicates, model trees
	// and the page caches publish live while the query runs.
	for _, p := range tunedPreds {
		p.Instrument(reg)
		if mlq, ok := p.Model.(*core.MLQ); ok {
			mlq.Tree().Instrument(reg, telemetry.L("udf", p.Name))
		}
	}
	if reg != nil {
		tdb.Cache().Instrument(reg, telemetry.L("db", "text"))
		sdb.Cache().Instrument(reg, telemetry.L("db", "spatial"))
	}
	tuned, err := engine.ExecuteQuery(table, tunedPreds, engine.OrderByRank)
	if err != nil {
		return err
	}

	if naive.Selected != tuned.Selected {
		return fmt.Errorf("plans disagree: naive selected %d, tuned %d", naive.Selected, tuned.Selected)
	}
	fmt.Println()
	fmt.Printf("rows selected:            %d\n", naive.Selected)
	fmt.Printf("naive plan total cost:    %.0f work units\n", naive.TotalCost)
	fmt.Printf("self-tuned plan cost:     %.0f work units\n", tuned.TotalCost)
	fmt.Printf("speedup:                  %.2fx\n", naive.TotalCost/tuned.TotalCost)
	fmt.Println()
	for _, p := range tunedPreds {
		fmt.Printf("%-16s selectivity=%.3f mean cost=%.1f evaluations=%d\n",
			p.Name, p.Selectivity(), p.MeanCost(), p.Evaluated())
	}
	mlq := tunedPreds[0].Model.(*core.MLQ)
	c := mlq.Costs()
	fmt.Printf("\n%s model for NearUrbanArea: %d nodes, %d B, APC=%v, AUC=%v\n",
		mlq.Name(), mlq.Tree().NodeCount(), mlq.MemoryUsed(), c.APC(), c.AUC())
	return nil
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
