package textdb

import (
	"math/rand"
	"sort"
	"testing"

	"mlq/internal/geom"
)

// smallDB builds a compact corpus for fast tests.
func smallDB(t *testing.T) *DB {
	t.Helper()
	db, err := Generate(Config{
		NumDocs:    300,
		VocabSize:  200,
		MeanDocLen: 40,
		PageSize:   256,
		CachePages: 8,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumDocs: -1}); err == nil {
		t.Error("negative NumDocs accepted")
	}
	if _, err := Generate(Config{PageSize: 4}); err == nil {
		t.Error("tiny page size accepted")
	}
}

func TestCorpusShape(t *testing.T) {
	db := smallDB(t)
	if db.NumDocs() != 300 || db.VocabSize() != 200 {
		t.Fatalf("docs=%d vocab=%d", db.NumDocs(), db.VocabSize())
	}
	// Zipf: document frequency must broadly decrease with rank.
	if db.DocFreq(0) <= db.DocFreq(150) {
		t.Errorf("df(0)=%d <= df(150)=%d; vocabulary not Zipfian", db.DocFreq(0), db.DocFreq(150))
	}
	if db.DocFreq(-1) != 0 || db.DocFreq(10000) != 0 {
		t.Error("out-of-range DocFreq must be 0")
	}
	if db.Store().NumPages() == 0 {
		t.Error("index not serialized to pages")
	}
}

func TestPostingsMatchDocFreq(t *testing.T) {
	db := smallDB(t)
	for _, w := range []int{0, 5, 50, 199} {
		var stats ExecStats
		list, err := db.Postings(w, &stats)
		if err != nil {
			t.Fatal(err)
		}
		docs := make(map[uint32]bool)
		for _, p := range list {
			docs[p.Doc] = true
		}
		if len(docs) != db.DocFreq(w) {
			t.Errorf("word %d: %d distinct docs in postings, df=%d", w, len(docs), db.DocFreq(w))
		}
		if stats.CPU != float64(len(list)) {
			t.Errorf("word %d: CPU %g != postings %d", w, stats.CPU, len(list))
		}
		// Postings must be grouped by doc with ascending positions.
		for i := 1; i < len(list); i++ {
			if list[i].Doc < list[i-1].Doc {
				t.Fatalf("word %d: postings not in doc order", w)
			}
			if list[i].Doc == list[i-1].Doc && list[i].Pos <= list[i-1].Pos {
				t.Fatalf("word %d: positions not ascending within doc", w)
			}
		}
	}
	if _, err := db.Postings(-1, &ExecStats{}); err == nil {
		t.Error("negative word accepted")
	}
}

// bruteDocs recomputes the documents containing word w from raw postings.
func bruteDocs(t *testing.T, db *DB, w int) map[uint32]bool {
	t.Helper()
	var stats ExecStats
	list, err := db.Postings(w, &stats)
	if err != nil {
		t.Fatal(err)
	}
	docs := make(map[uint32]bool)
	for _, p := range list {
		docs[p.Doc] = true
	}
	return docs
}

func TestSearchSimpleCorrectness(t *testing.T) {
	db := smallDB(t)
	words := []int{0, 3, 10}
	got, stats, err := db.SearchSimple(words)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteDocs(t, db, words[0])
	for _, w := range words[1:] {
		next := bruteDocs(t, db, w)
		for d := range want {
			if !next[d] {
				delete(want, d)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d docs, want %d", len(got), len(want))
	}
	for _, d := range got {
		if !want[d] {
			t.Fatalf("doc %d not in brute-force result", d)
		}
	}
	if stats.CPU <= 0 || stats.Wall <= 0 {
		t.Errorf("stats not recorded: %+v", stats)
	}
	// Empty query.
	docs, _, err := db.SearchSimple(nil)
	if err != nil || docs != nil {
		t.Error("empty query must return no docs, no error")
	}
}

func TestSearchThresholdCorrectness(t *testing.T) {
	db := smallDB(t)
	words := []int{1, 4, 9, 20}
	for _, minMatch := range []int{1, 2, 4} {
		got, _, err := db.SearchThreshold(words, minMatch)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[uint32]int)
		for _, w := range words {
			for d := range bruteDocs(t, db, w) {
				counts[d]++
			}
		}
		want := 0
		for _, c := range counts {
			if c >= minMatch {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("minMatch=%d: got %d docs, want %d", minMatch, len(got), want)
		}
	}
	// Threshold 1 over one word = that word's doc list.
	got, _, _ := db.SearchThreshold([]int{7}, 0) // clamped to 1
	if len(got) != db.DocFreq(7) {
		t.Errorf("single-word threshold: %d docs, df=%d", len(got), db.DocFreq(7))
	}
}

func TestSearchThresholdSupersetsSimple(t *testing.T) {
	db := smallDB(t)
	words := []int{0, 2, 5}
	simple, _, _ := db.SearchSimple(words)
	thresh, _, _ := db.SearchThreshold(words, len(words))
	sortU32 := func(xs []uint32) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	sortU32(simple)
	sortU32(thresh)
	if len(simple) != len(thresh) {
		t.Fatalf("ALL-threshold (%d) must equal simple AND (%d)", len(thresh), len(simple))
	}
	for i := range simple {
		if simple[i] != thresh[i] {
			t.Fatal("ALL-threshold diverged from simple AND")
		}
	}
}

func TestSearchProximityCorrectness(t *testing.T) {
	db := smallDB(t)
	words := []int{0, 1}
	// A huge window degenerates to simple AND.
	prox, _, err := db.SearchProximity(words, 100000)
	if err != nil {
		t.Fatal(err)
	}
	simple, _, _ := db.SearchSimple(words)
	if len(prox) != len(simple) {
		t.Errorf("infinite-window proximity %d docs, simple %d", len(prox), len(simple))
	}
	// Window monotonicity: a narrower window can only drop documents.
	narrow, _, _ := db.SearchProximity(words, 3)
	wide, _, _ := db.SearchProximity(words, 30)
	if len(narrow) > len(wide) {
		t.Errorf("narrow window found more docs (%d) than wide (%d)", len(narrow), len(wide))
	}
	// Verify each narrow hit truly has a span <= 3 somewhere.
	var s ExecStats
	l0, _ := db.Postings(0, &s)
	l1, _ := db.Postings(1, &s)
	posOf := func(list []Posting, doc uint32) []uint32 {
		var out []uint32
		for _, p := range list {
			if p.Doc == doc {
				out = append(out, p.Pos)
			}
		}
		return out
	}
	for _, d := range narrow {
		found := false
		for _, a := range posOf(l0, d) {
			for _, b := range posOf(l1, d) {
				span := int64(a) - int64(b)
				if span < 0 {
					span = -span
				}
				if span+1 <= 3 {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("doc %d reported within window 3 but brute force disagrees", d)
		}
	}
	if _, _, err := db.SearchProximity(nil, 5); err != nil {
		t.Error("empty proximity query must not error")
	}
}

func TestMinSpanWithin(t *testing.T) {
	cases := []struct {
		slot   [][]uint32
		window uint32
		want   bool
	}{
		{[][]uint32{{1, 10}, {3}}, 3, true},   // 1..3 spans 3
		{[][]uint32{{1, 10}, {5}}, 3, false},  // best span 5..10 = 6
		{[][]uint32{{1, 10}, {5}}, 6, true},   // 5..10 = 6
		{[][]uint32{{7}, {7}}, 1, true},       // identical positions
		{[][]uint32{{0}, {100}}, 50, false},   // far apart
		{[][]uint32{{0, 99}, {100}}, 2, true}, // 99..100
	}
	for i, c := range cases {
		got, work := minSpanWithin(c.slot, c.window)
		if got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
		if work <= 0 {
			t.Errorf("case %d: no work recorded", i)
		}
	}
}

func TestIOCostsDependOnCacheState(t *testing.T) {
	db := smallDB(t)
	// Rare words have one-page posting lists, so the whole query fits in
	// the 8-page cache and the repeat run is served from memory.
	words := []int{150, 160, 170}
	db.Cache().Invalidate()
	_, cold, _ := db.SearchSimple(words)
	_, warm, _ := db.SearchSimple(words)
	if cold.IO == 0 {
		t.Fatal("cold run performed no IO")
	}
	if warm.IO >= cold.IO {
		t.Errorf("warm IO %g not below cold IO %g", warm.IO, cold.IO)
	}
	if cold.CPU != warm.CPU {
		t.Errorf("CPU must be deterministic: %g vs %g", cold.CPU, warm.CPU)
	}
}

func TestUDFAdapters(t *testing.T) {
	db := smallDB(t)
	udfs := db.UDFs()
	if len(udfs) != 3 {
		t.Fatalf("got %d UDFs", len(udfs))
	}
	names := []string{"SIMPLE", "THRESH", "PROX"}
	for i, u := range udfs {
		if u.Name() != names[i] {
			t.Errorf("UDF %d name %q, want %q", i, u.Name(), names[i])
		}
		region := u.Region()
		if region.Dims() != 2 {
			t.Errorf("%s: model space has %d dims, want 2", u.Name(), region.Dims())
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for q := 0; q < 20; q++ {
			p := make(geom.Point, 2)
			for j := range p {
				p[j] = region.Lo[j] + rng.Float64()*(region.Hi[j]-region.Lo[j])
			}
			cpu, io, err := u.Execute(p)
			if err != nil {
				t.Fatalf("%s: execution failed: %v", u.Name(), err)
			}
			if cpu < 0 || io < 0 {
				t.Fatalf("%s: negative costs (%g, %g)", u.Name(), cpu, io)
			}
		}
	}
}

func TestUDFCostDecreasesWithRank(t *testing.T) {
	// Posting lists shrink with rank, so SIMPLE's CPU cost at low rank
	// must exceed the cost at high rank.
	db := smallDB(t)
	u := db.UDFs()[0]
	cheapRank := float64(db.VocabSize() - 10)
	cpuLow, _, errLow := u.Execute(geom.Point{0, 2})
	cpuHigh, _, errHigh := u.Execute(geom.Point{cheapRank, 2})
	if errLow != nil || errHigh != nil {
		t.Fatalf("execution failed: %v, %v", errLow, errHigh)
	}
	if cpuLow <= cpuHigh {
		t.Errorf("cost at rank 0 (%g) not above cost at rank %g (%g)", cpuLow, cheapRank, cpuHigh)
	}
}

func TestWordsFromClamping(t *testing.T) {
	db := smallDB(t)
	words := db.wordsFrom(-5, 0) // n clamped to 1, rank clamped to 0
	if len(words) != 1 || words[0] != 0 {
		t.Errorf("wordsFrom(-5, 0) = %v", words)
	}
	words = db.wordsFrom(1e9, 3)
	for _, w := range words {
		if w != db.VocabSize()-1 {
			t.Errorf("over-range rank not clamped: %v", words)
		}
	}
}
