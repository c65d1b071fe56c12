package textdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlq/internal/pagestore"
)

// refSearchSimple is SearchSimple as it was before the dense accumulator:
// per-query maps for the counts and for each word's distinct documents,
// over freshly allocated posting lists. The differential tests hold the
// accumulator to it.
func refSearchSimple(db *DB, words []int) ([]uint32, ExecStats, error) {
	var docs []uint32
	var stats ExecStats
	meter := db.cache.NewMeter()
	err := func() error {
		if len(words) == 0 {
			return nil
		}
		counts := make(map[uint32]int)
		for i, w := range words {
			list, err := db.Postings(w, &stats)
			if err != nil {
				return err
			}
			seen := make(map[uint32]bool)
			for _, p := range list {
				if !seen[p.Doc] {
					seen[p.Doc] = true
					if counts[p.Doc] == i { // survived all previous words
						counts[p.Doc]++
					}
				}
			}
			stats.CPU += float64(len(list))
		}
		for doc, c := range counts {
			if c == len(words) {
				docs = append(docs, doc)
			}
		}
		stats.CPU += float64(len(counts))
		return nil
	}()
	stats.IO = meter.Cost()
	return docs, stats, err
}

// refSearchThreshold is SearchThreshold as it was before the dense
// accumulator.
func refSearchThreshold(db *DB, words []int, minMatch int) ([]uint32, ExecStats, error) {
	var docs []uint32
	var stats ExecStats
	meter := db.cache.NewMeter()
	err := func() error {
		if minMatch < 1 {
			minMatch = 1
		}
		counts := make(map[uint32]int)
		for _, w := range words {
			list, err := db.Postings(w, &stats)
			if err != nil {
				return err
			}
			seen := make(map[uint32]bool)
			for _, p := range list {
				if !seen[p.Doc] {
					seen[p.Doc] = true
					counts[p.Doc]++
				}
			}
			stats.CPU += float64(len(list))
		}
		for doc, c := range counts {
			if c >= minMatch {
				docs = append(docs, doc)
			}
		}
		stats.CPU += float64(len(counts))
		return nil
	}()
	stats.IO = meter.Cost()
	return docs, stats, err
}

var errInjected = errors.New("injected read fault")

// failNthRead makes the n-th physical read of store from now fail.
func failNthRead(store *pagestore.Store, n int) {
	store.SetReadFault(func(pagestore.PageID) error {
		if n--; n == 0 {
			return errInjected
		}
		return nil
	})
}

// diffPair runs one query on db and the same query through the reference
// on ref, a twin generated from the same Config, and fails t unless the
// errors, CPU and IO costs and the sorted results agree exactly. It returns
// the error of db's run.
func diffPair(t *testing.T, label string, db, ref *DB, words []int, minMatch int) error {
	t.Helper()
	var got, want []uint32
	var gs, ws ExecStats
	var gerr, werr error
	if minMatch == 0 {
		got, gs, gerr = db.SearchSimple(words)
		want, ws, werr = refSearchSimple(ref, words)
	} else {
		got, gs, gerr = db.SearchThreshold(words, minMatch)
		want, ws, werr = refSearchThreshold(ref, words, minMatch)
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
	}
	if math.Float64bits(gs.CPU) != math.Float64bits(ws.CPU) || math.Float64bits(gs.IO) != math.Float64bits(ws.IO) {
		t.Fatalf("%s: CPU/IO %v/%v, reference %v/%v", label, gs.CPU, gs.IO, ws.CPU, ws.IO)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("%s: results not in ascending ID order", label)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d results, reference %d", label, len(got), len(want))
	}
	return gerr
}

func twinDBs(t *testing.T, cfg Config) (*DB, *DB) {
	t.Helper()
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ref
}

// TestSearchesMatchReference runs one seeded stream of simple and threshold
// searches through the accumulator and through the map-based reference on
// twin databases whose caches see the same page sequence. The stream holds
// empty word lists, repeated words and out-of-range words, and every so
// often a read fault in mid-query followed by a clean query.
func TestSearchesMatchReference(t *testing.T) {
	db, ref := twinDBs(t, Config{NumDocs: 500, VocabSize: 200, MeanDocLen: 40, PageSize: 256, CachePages: 12, Seed: 11})
	rng := rand.New(rand.NewSource(3))
	var empty, repeated, outOfRange, faulted, afterFault int
	lastFaulted := false
	for q := 0; q < 4000; q++ {
		words := make([]int, rng.Intn(6))
		for i := range words {
			switch r := rng.Intn(100); {
			case r < 2:
				words[i] = []int{-1, db.VocabSize()}[rng.Intn(2)]
			case r < 12 && i > 0:
				words[i] = words[rng.Intn(i)]
			default:
				// Skewed toward frequent words, whose lists overlap most.
				words[i] = int(float64(db.VocabSize()) * math.Pow(rng.Float64(), 3))
			}
		}
		minMatch := 0 // SearchSimple
		if rng.Intn(2) == 0 {
			minMatch = rng.Intn(len(words)+2) - 1 // SearchThreshold, some out of [1, len]
			if minMatch == 0 {
				minMatch = -1
			}
		}
		inject := q%37 == 36
		if inject {
			n := 2 + rng.Intn(4) // at least one page read precedes the fault
			failNthRead(db.Store(), n)
			failNthRead(ref.Store(), n)
		}
		err := diffPair(t, fmt.Sprintf("query %d %v minMatch %d", q, words, minMatch), db, ref, words, minMatch)
		if inject {
			db.Store().SetReadFault(nil)
			ref.Store().SetReadFault(nil)
		}
		switch {
		case errors.Is(err, errInjected):
			faulted++
		case err == nil && lastFaulted:
			afterFault++
		}
		lastFaulted = errors.Is(err, errInjected)
		if len(words) == 0 {
			empty++
		}
		distinct := slices.Clone(words)
		slices.Sort(distinct)
		if len(slices.Compact(distinct)) != len(words) {
			repeated++
		}
		if slices.ContainsFunc(words, func(w int) bool { return w < 0 || w >= db.VocabSize() }) {
			outOfRange++
		}
	}
	if empty == 0 || repeated == 0 || outOfRange == 0 || faulted < 20 || afterFault < 20 {
		t.Fatalf("stream too tame: %d empty, %d repeated, %d out-of-range, %d faulted, %d clean after a fault",
			empty, repeated, outOfRange, faulted, afterFault)
	}
}

// TestSearchGenerationWrap starts the accumulator's generation just short
// of wrapping, over slots stamped with the generations that follow the
// wrap, as if left 2^32 queries ago, and runs searches across the wrap
// against the reference.
func TestSearchGenerationWrap(t *testing.T) {
	db, ref := twinDBs(t, Config{NumDocs: 300, VocabSize: 100, MeanDocLen: 40, PageSize: 256, CachePages: 12, Seed: 12})
	for i := range db.acc {
		db.acc[i] = docAcc{mark: uint32(1 + i%4), last: int32(i % 3), count: 2}
	}
	db.gen = math.MaxUint32 - 2
	// The rare first query runs twice before the wrap and leaves most of
	// the stale stamps in place for the common words after it.
	queries := [][]int{{97}, {0, 1}, {0, 2, 5}, {1, 0}, {0}, {3, 0, 0}, {0, 4}}
	for i, words := range queries {
		label := fmt.Sprintf("query %d (gen %d)", i, db.gen)
		diffPair(t, label, db, ref, words, 0)
		diffPair(t, label+" threshold", db, ref, words, 1)
	}
	if db.gen != uint32(2*len(queries)-2) {
		t.Fatalf("generation %d after the wrap, want %d", db.gen, 2*len(queries)-2)
	}
}
