// Command mlqsql runs SQL queries with expensive UDF predicates against the
// repository's text and spatial engines, planning them with self-tuning MLQ
// cost models. It is the paper's Figure 1 wired to a SQL front end.
//
// Usage:
//
//	mlqsql [-q "SELECT ..."] [-rows N] [-seed N] [-compare]
//
// The schema is a table `requests` of simulated query parameters with the
// six UDFs registered as SQL functions:
//
//	win_count(x, y, area)       spatial window search, objects found
//	range_count(x, y, r)        spatial range search, objects found
//	knn_dist(x, y, k)           distance to the k-th nearest object
//	doc_count(rank, n)          keyword AND search, documents found
//	thresh_count(rank, m)       threshold keyword search, documents found
//	prox_count(rank, w)         proximity keyword search, documents found
//
// Columns of requests: x, y, area, r, k, rank, n, m, w.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"mlq/internal/core"
	"mlq/internal/engine"
	"mlq/internal/geom"
	"mlq/internal/minisql"
	"mlq/internal/quadtree"
	"mlq/internal/spatialdb"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
)

const defaultQuery = `SELECT * FROM requests WHERE win_count(x, y, area) >= 5 AND prox_count(rank, w) > 0`

func main() {
	query := flag.String("q", defaultQuery, "SQL query to run")
	rows := flag.Int("rows", 2000, "rows in the requests table")
	seed := flag.Int64("seed", 1, "random seed")
	compare := flag.Bool("compare", true, "also run the naive as-written plan and report the speedup")
	telemetryAddr := flag.String("telemetry", "", "serve live metrics on this address while the query runs (e.g. localhost:9090; empty disables)")
	flag.Parse()

	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.New()
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlqsql:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving %s\n", srv.URL())
		defer srv.Close()
	}

	if err := run(*query, *rows, *seed, *compare, reg); err != nil {
		fmt.Fprintln(os.Stderr, "mlqsql:", err)
		os.Exit(1)
	}
}

// buildDB assembles the substrates, the requests table, and the UDF
// registrations. Fresh models every call so plans can be compared fairly. A
// non-nil registry attaches each UDF's cost and selectivity model trees and
// the two page caches to telemetry.
func buildDB(rows int, seed int64, reg *telemetry.Registry) (*minisql.DB, error) {
	tdb, err := textdb.Generate(textdb.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: seed + 1})
	if err != nil {
		return nil, err
	}

	db := minisql.NewDB()
	rng := rand.New(rand.NewSource(seed + 2))
	table := &engine.Table{Name: "requests"}
	vocab := float64(tdb.VocabSize())
	for i := 0; i < rows; i++ {
		table.Rows = append(table.Rows, engine.Row{
			rng.Float64() * 1000,    // x
			rng.Float64() * 1000,    // y
			1 + rng.Float64()*10000, // area
			1 + rng.Float64()*100,   // r
			1 + rng.Float64()*40,    // k
			rng.Float64() * vocab,   // rank
			1 + rng.Float64()*5,     // n
			1 + rng.Float64()*4,     // m
			1 + rng.Float64()*50,    // w
		})
	}
	if err := db.AddTable(table, "x", "y", "area", "r", "k", "rank", "n", "m", "w"); err != nil {
		return nil, err
	}

	model := func(lo, hi geom.Point) (core.Model, error) {
		region, err := geom.NewRect(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("mlqsql: model region: %w", err)
		}
		return core.NewMLQ(quadtree.Config{
			Region:      region,
			Strategy:    quadtree.Lazy,
			MemoryLimit: 1843,
		})
	}
	charge := func(cpu, io float64) float64 { return cpu + 10*io }

	winModel, err := model(geom.Point{0, 0, 0}, geom.Point{1000, 1000, 10001})
	if err != nil {
		return nil, err
	}
	rangeModel, err := model(geom.Point{0, 0, 0}, geom.Point{1000, 1000, 101})
	if err != nil {
		return nil, err
	}
	knnModel, err := model(geom.Point{0, 0, 1}, geom.Point{1000, 1000, 41})
	if err != nil {
		return nil, err
	}
	docModel, err := model(geom.Point{0, 1}, geom.Point{vocab, 6})
	if err != nil {
		return nil, err
	}
	threshModel, err := model(geom.Point{0, 1}, geom.Point{vocab, 5})
	if err != nil {
		return nil, err
	}
	proxModel, err := model(geom.Point{0, 1}, geom.Point{vocab, 51})
	if err != nil {
		return nil, err
	}

	funcs := []*minisql.Func{
		{
			Name: "win_count", Arity: 3,
			Eval: func(a []float64) (float64, float64) {
				side := sqrtPos(a[2])
				objs, st, err := sdb.Window(a[0]-side/2, a[1]-side/2, side, side)
				if err != nil {
					return evalFailed("win_count", err)
				}
				return float64(len(objs)), charge(st.CPU, st.IO)
			},
			Model: winModel,
		},
		{
			Name: "range_count", Arity: 3,
			Eval: func(a []float64) (float64, float64) {
				objs, st, err := sdb.Range(a[0], a[1], maxF(a[2], 0))
				if err != nil {
					return evalFailed("range_count", err)
				}
				return float64(len(objs)), charge(st.CPU, st.IO)
			},
			Model: rangeModel,
		},
		{
			Name: "knn_dist", Arity: 3,
			Eval: func(a []float64) (float64, float64) {
				k := int(a[2])
				if k < 1 {
					k = 1
				}
				objs, st, err := sdb.KNN(a[0], a[1], k)
				if err != nil {
					return evalFailed("knn_dist", err)
				}
				d := 0.0
				if len(objs) > 0 {
					last := objs[len(objs)-1]
					d = geom.Dist(geom.Point{a[0], a[1]}, geom.Point{last.CenterX(), last.CenterY()})
				}
				return d, charge(st.CPU, st.IO)
			},
			Model: knnModel,
		},
		{
			Name: "doc_count", Arity: 2,
			Eval: func(a []float64) (float64, float64) {
				docs, st, err := tdb.SearchSimple(wordsFrom(tdb, a[0], int(a[1])))
				if err != nil {
					return evalFailed("doc_count", err)
				}
				return float64(len(docs)), charge(st.CPU, st.IO)
			},
			Model: docModel,
		},
		{
			Name: "thresh_count", Arity: 2,
			Eval: func(a []float64) (float64, float64) {
				docs, st, err := tdb.SearchThreshold(wordsFrom(tdb, a[0], 5), int(a[1]))
				if err != nil {
					return evalFailed("thresh_count", err)
				}
				return float64(len(docs)), charge(st.CPU, st.IO)
			},
			Model: threshModel,
		},
		{
			Name: "prox_count", Arity: 2,
			Eval: func(a []float64) (float64, float64) {
				docs, st, err := tdb.SearchProximity(wordsFrom(tdb, a[0], 2), int(a[1]))
				if err != nil {
					return evalFailed("prox_count", err)
				}
				return float64(len(docs)), charge(st.CPU, st.IO)
			},
			Model: proxModel,
		},
	}
	for _, f := range funcs {
		sel, err := model(f.Model.(*core.MLQ).Tree().Config().Region.Lo,
			f.Model.(*core.MLQ).Tree().Config().Region.Hi)
		if err != nil {
			return nil, err
		}
		f.SelModel = sel
		if reg != nil {
			f.Model.(*core.MLQ).Tree().Instrument(reg,
				telemetry.L("udf", f.Name), telemetry.L("model", "cost"))
			sel.(*core.MLQ).Tree().Instrument(reg,
				telemetry.L("udf", f.Name), telemetry.L("model", "sel"))
		}
		if err := db.AddFunc(f); err != nil {
			return nil, err
		}
	}
	if reg != nil {
		tdb.Cache().Instrument(reg, telemetry.L("db", "text"))
		sdb.Cache().Instrument(reg, telemetry.L("db", "spatial"))
	}
	return db, nil
}

// wordsFrom mirrors the textdb UDF adapters' keyword materialization.
func wordsFrom(tdb *textdb.DB, rank float64, n int) []int {
	if n < 1 {
		n = 1
	}
	stride := tdb.VocabSize() / 64
	if stride < 1 {
		stride = 1
	}
	words := make([]int, n)
	for i := range words {
		w := int(rank) + i*stride
		if w >= tdb.VocabSize() {
			w = tdb.VocabSize() - 1
		}
		if w < 0 {
			w = 0
		}
		words[i] = w
	}
	return words
}

// evalFailed surfaces a UDF execution failure on stderr and reports a zero
// result at zero cost; the row simply does not pass the predicate. These
// closures have no error channel, and the old panic(err) here crashed the
// whole CLI with a stack trace for a single failed page read.
func evalFailed(name string, err error) (float64, float64) {
	fmt.Fprintf(os.Stderr, "mlqsql: %s: execution failed: %v\n", name, err)
	return 0, 0
}

func sqrtPos(v float64) float64 {
	if v < 1 {
		v = 1
	}
	return math.Sqrt(v)
}

func maxF(a, b float64) float64 { return math.Max(a, b) }

func run(query string, rows int, seed int64, compare bool, reg *telemetry.Registry) error {
	fmt.Fprintln(os.Stderr, "building substrates...")
	db, err := buildDB(rows, seed, reg)
	if err != nil {
		return err
	}
	tuned, err := db.Exec(query, engine.OrderByRank)
	if err != nil {
		return err
	}
	fmt.Printf("query: %s\n", query)
	fmt.Printf("rows selected: %d of %d\n", len(tuned.Rows), rows)
	fmt.Printf("self-tuned plan cost: %.0f work units\n", tuned.Stats.TotalCost)
	fmt.Println("\nUDF evaluations (self-tuned plan):")
	for _, name := range tuned.Plan {
		fmt.Printf("  %-36s %d\n", name, tuned.Stats.Evaluations[name])
	}
	if !compare {
		return nil
	}
	// The naive comparison DB is deliberately uninstrumented: two sets of
	// fresh trees publishing into the same series would interleave.
	naiveDB, err := buildDB(rows, seed, nil)
	if err != nil {
		return err
	}
	naive, err := naiveDB.Exec(query, engine.OrderAsGiven)
	if err != nil {
		return err
	}
	if len(naive.Rows) != len(tuned.Rows) {
		return fmt.Errorf("plans disagree: naive %d rows, tuned %d", len(naive.Rows), len(tuned.Rows))
	}
	fmt.Printf("\nnaive as-written plan cost: %.0f work units\n", naive.Stats.TotalCost)
	fmt.Printf("speedup from self-tuned ordering: %.2fx\n", naive.Stats.TotalCost/tuned.Stats.TotalCost)
	return nil
}
