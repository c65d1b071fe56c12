// Package textdb is a miniature keyword-search engine: a synthetic corpus
// with a Zipfian vocabulary, a positional inverted index serialized onto
// disk pages, and the paper's three keyword-based text-search UDFs (simple,
// threshold, proximity) executed through an LRU buffer cache.
//
// It substitutes for the paper's Oracle Text UDFs over the Reuters corpus:
// the cost model only ever sees (model variables -> execution cost), and a
// Zipfian corpus produces the same qualitative cost surface — cost grows
// with posting-list sizes and keyword count, nonlinearly and with skew.
// See DESIGN.md §3.
package textdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mlq/internal/buffercache"
	"mlq/internal/dist"
	"mlq/internal/pagestore"
)

// Posting is one occurrence of a word: the document and the word position
// within it.
type Posting struct {
	Doc uint32
	Pos uint32
}

const postingBytes = 8

// Config parameterizes corpus generation. Zero fields take defaults chosen
// to give posting lists spanning one to hundreds of pages.
type Config struct {
	// NumDocs is the corpus size. Default 4000.
	NumDocs int
	// VocabSize is the number of distinct words. Default 1500.
	VocabSize int
	// MeanDocLen is the average words per document. Default 120.
	MeanDocLen int
	// ZipfS is the word-frequency Zipf exponent. Default 1.
	ZipfS float64
	// PageSize is the disk page size. Default pagestore.DefaultPageSize.
	PageSize int
	// CachePages is the buffer-cache capacity. Default 64.
	CachePages int
	// CachePolicy is the buffer-cache replacement policy (default LRU).
	// The policy shapes the disk-IO cost noise of Experiment 3.
	CachePolicy buffercache.Policy
	// Seed drives corpus generation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumDocs == 0 {
		c.NumDocs = 4000
	}
	if c.VocabSize == 0 {
		c.VocabSize = 1500
	}
	if c.MeanDocLen == 0 {
		c.MeanDocLen = 120
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.ZipfS == 0 {
		c.ZipfS = 1
	}
	if c.CachePages == 0 {
		c.CachePages = 64
	}
	return c
}

// wordMeta is the per-word catalog entry: document frequency and the pages
// holding the word's posting list.
type wordMeta struct {
	df       int32 // documents containing the word
	postings int32 // total occurrences
	pages    []pagestore.PageID
}

// DB is a loaded text database: corpus statistics plus the on-page inverted
// index, read through a buffer cache. A DB is not safe for concurrent use:
// every query goes through its buffer cache and its per-query scratch.
type DB struct {
	cfg    Config
	store  *pagestore.Store
	cache  *buffercache.Cache
	words  []wordMeta
	nDocs  int
	maxLen int // longest posting list, for sizing model spaces

	// Per-query scratch, reused across queries. acc is the keyword
	// searches' dense accumulator indexed by document ID; a slot whose mark
	// is not gen is untouched this query, so bumping gen clears them all.
	acc   []docAcc
	gen   uint32
	cands []uint32  // documents touched this query, in first-touch order
	posts []Posting // the posting list being scanned
}

// docAcc is one document's accumulator slot in a keyword search.
type docAcc struct {
	mark  uint32 // generation of the query that last touched the document
	last  int32  // index of the last query word whose list held it
	count int32  // query words counted toward the document
}

// ExecStats reports one UDF execution's measured costs.
type ExecStats struct {
	// CPU is the work-unit count: postings decoded plus per-candidate
	// evaluation work. Deterministic for a given query and corpus.
	CPU float64
	// IO is the modeled IO cost: physical page reads (buffer-cache misses)
	// plus any retry/slow-disk latency the cache charged, in clean-read
	// equivalents. Depends on cache state, hence noisy across repetitions;
	// equals the plain miss count on a healthy disk.
	IO float64
	// Wall is the real execution time.
	Wall time.Duration
}

// Generate builds a corpus, writes its inverted index to simulated disk, and
// returns the ready-to-query database.
func Generate(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if cfg.NumDocs < 1 || cfg.VocabSize < 1 || cfg.MeanDocLen < 1 {
		return nil, fmt.Errorf("textdb: NumDocs, VocabSize, MeanDocLen must be >= 1")
	}
	store, err := pagestore.New(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cache, err := buffercache.NewWithPolicy(store, cfg.CachePages, cfg.CachePolicy)
	if err != nil {
		return nil, err
	}
	zipf, err := dist.NewZipf(cfg.VocabSize, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Step 1: synthesize documents, accumulating postings per word.
	lists := make([][]Posting, cfg.VocabSize)
	dfSeen := make([]uint32, cfg.VocabSize) // last doc counted, +1
	db := &DB{cfg: cfg, store: store, cache: cache, nDocs: cfg.NumDocs, acc: make([]docAcc, cfg.NumDocs)}
	db.words = make([]wordMeta, cfg.VocabSize)
	for doc := 0; doc < cfg.NumDocs; doc++ {
		length := cfg.MeanDocLen/2 + rng.Intn(cfg.MeanDocLen)
		for pos := 0; pos < length; pos++ {
			w := zipf.Sample(rng) - 1 // word IDs are 0-based ranks
			lists[w] = append(lists[w], Posting{Doc: uint32(doc), Pos: uint32(pos)})
			if dfSeen[w] != uint32(doc)+1 {
				dfSeen[w] = uint32(doc) + 1
				db.words[w].df++
			}
		}
	}

	// Step 2: serialize each posting list onto pages.
	perPage := store.PageSize() / postingBytes
	buf := make([]byte, store.PageSize())
	for w, list := range lists {
		db.words[w].postings = int32(len(list))
		if len(list) > db.maxLen {
			db.maxLen = len(list)
		}
		for start := 0; start < len(list); start += perPage {
			end := start + perPage
			if end > len(list) {
				end = len(list)
			}
			for i, p := range list[start:end] {
				binary.LittleEndian.PutUint32(buf[i*postingBytes:], p.Doc)
				binary.LittleEndian.PutUint32(buf[i*postingBytes+4:], p.Pos)
			}
			id := store.Alloc()
			if err := store.Write(id, buf[:(end-start)*postingBytes]); err != nil {
				return nil, err
			}
			db.words[w].pages = append(db.words[w].pages, id)
		}
	}
	return db, nil
}

// NumDocs returns the corpus size.
func (db *DB) NumDocs() int { return db.nDocs }

// VocabSize returns the number of distinct words.
func (db *DB) VocabSize() int { return len(db.words) }

// DocFreq returns how many documents contain word w.
func (db *DB) DocFreq(w int) int {
	if w < 0 || w >= len(db.words) {
		return 0
	}
	return int(db.words[w].df)
}

// Postings returns word w's full posting list, read through the buffer
// cache, charging stats for the pages touched and postings decoded. The
// returned slice is the caller's.
func (db *DB) Postings(w int, stats *ExecStats) ([]Posting, error) {
	var out []Posting
	if w >= 0 && w < len(db.words) {
		out = make([]Posting, 0, db.words[w].postings)
	}
	return db.decode(w, stats, out)
}

// postings is Postings for the searches: it decodes into the DB's reused
// buffer, so the list is valid only until the next call.
func (db *DB) postings(w int, stats *ExecStats) ([]Posting, error) {
	list, err := db.decode(w, stats, db.posts[:0])
	if err != nil {
		return nil, err
	}
	db.posts = list
	return list, nil
}

// decode appends word w's posting list to out, charging stats as Postings
// describes.
func (db *DB) decode(w int, stats *ExecStats, out []Posting) ([]Posting, error) {
	if w < 0 || w >= len(db.words) {
		return nil, fmt.Errorf("textdb: word %d out of range [0, %d)", w, len(db.words))
	}
	meta := &db.words[w]
	remaining := int(meta.postings)
	perPage := db.store.PageSize() / postingBytes
	for _, id := range meta.pages {
		page, err := db.cache.Get(id)
		if err != nil {
			return nil, err
		}
		n := perPage
		if remaining < n {
			n = remaining
		}
		for i := 0; i < n; i++ {
			out = append(out, Posting{
				Doc: binary.LittleEndian.Uint32(page[i*postingBytes:]),
				Pos: binary.LittleEndian.Uint32(page[i*postingBytes+4:]),
			})
		}
		remaining -= n
	}
	stats.CPU += float64(len(out))
	return out, nil
}

// Cache exposes the buffer cache (for experiment setup, e.g. invalidation).
func (db *DB) Cache() *buffercache.Cache { return db.cache }

// Store exposes the underlying page store.
func (db *DB) Store() *pagestore.Store { return db.store }

// run runs a search body with IO metering and wall-clock timing into stats.
// The body captures stats rather than receiving it, so that stats stays off
// the heap.
func (db *DB) run(stats *ExecStats, body func() error) error {
	meter := db.cache.NewMeter()
	start := time.Now()
	err := body()
	stats.Wall = time.Since(start)
	stats.IO = meter.Cost()
	return err
}

// begin starts a keyword search's accumulation: it empties the candidate
// list and bumps the generation, which marks every accumulator slot
// untouched at once, and returns the new generation.
func (db *DB) begin() uint32 {
	db.cands = db.cands[:0]
	db.gen++
	if db.gen == 0 {
		// Wrapped: slots marked by a query 2^32 searches ago would match.
		clear(db.acc)
		db.gen = 1
	}
	return db.gen
}

// accumulate counts each document of list, word i of the query in
// generation gen, once toward that document. With every set a document
// counts only while it has held all earlier words, and one missing from
// word 0 is never admitted; otherwise each word's documents count. A
// document ID past the corpus, which only a page rewritten behind the index
// can hold, fails the search.
func (db *DB) accumulate(list []Posting, gen uint32, i int32, every bool) error {
	for _, p := range list {
		if int(p.Doc) >= len(db.acc) {
			return fmt.Errorf("textdb: posting names document %d of a %d-document corpus", p.Doc, len(db.acc))
		}
		a := &db.acc[p.Doc]
		switch {
		case a.mark != gen:
			if every && i > 0 {
				continue
			}
			*a = docAcc{mark: gen, last: i, count: 1}
			db.cands = append(db.cands, p.Doc)
		case a.last != i:
			a.last = i
			if !every || a.count == i {
				a.count++
			}
		}
	}
	return nil
}

// matches returns the candidates counted toward at least minCount words in
// ascending ID order, or nil when there are none.
func (db *DB) matches(minCount int32) []uint32 {
	n := 0
	for _, d := range db.cands {
		if db.acc[d].count >= minCount {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	docs := make([]uint32, 0, n)
	for _, d := range db.cands {
		if db.acc[d].count >= minCount {
			docs = append(docs, d)
		}
	}
	slices.Sort(docs)
	return docs
}

// SearchSimple returns the documents containing every one of the given
// words (the paper's "simple" keyword search UDF), in ascending ID order.
func (db *DB) SearchSimple(words []int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats := new(ExecStats)
	err := db.run(stats, func() error {
		if len(words) == 0 {
			return nil
		}
		gen := db.begin()
		for i, w := range words {
			list, err := db.postings(w, stats)
			if err != nil {
				return err
			}
			if err := db.accumulate(list, gen, int32(i), true); err != nil {
				return err
			}
			stats.CPU += float64(len(list))
		}
		docs = db.matches(int32(len(words)))
		stats.CPU += float64(len(db.cands))
		return nil
	})
	return docs, *stats, err
}

// SearchThreshold returns the documents containing at least minMatch of the
// given words (the paper's "threshold" search UDF), in ascending ID order.
func (db *DB) SearchThreshold(words []int, minMatch int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats := new(ExecStats)
	err := db.run(stats, func() error {
		// No document counts more than len(words), so the clamp keeps
		// every answer and fits minMatch in the int32 counts.
		minMatch = min(max(minMatch, 1), len(words)+1)
		gen := db.begin()
		for i, w := range words {
			list, err := db.postings(w, stats)
			if err != nil {
				return err
			}
			if err := db.accumulate(list, gen, int32(i), false); err != nil {
				return err
			}
			stats.CPU += float64(len(list))
		}
		docs = db.matches(int32(minMatch))
		stats.CPU += float64(len(db.cands))
		return nil
	})
	return docs, *stats, err
}

// SearchProximity returns the documents in which all given words occur
// within a window of the given width (inclusive span of positions; the
// paper's "proximity" search UDF).
func (db *DB) SearchProximity(words []int, window int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats := new(ExecStats)
	err := db.run(stats, func() error {
		if len(words) == 0 {
			return nil
		}
		if window < 1 {
			window = 1
		}
		// positions[doc][i] = sorted positions of words[i] in doc.
		positions := make(map[uint32][][]uint32)
		for i, w := range words {
			list, err := db.postings(w, stats)
			if err != nil {
				return err
			}
			for _, p := range list {
				slot, ok := positions[p.Doc]
				if !ok {
					slot = make([][]uint32, len(words))
					positions[p.Doc] = slot
				}
				slot[i] = append(slot[i], p.Pos) // postings are in position order
			}
			stats.CPU += float64(len(list))
		}
	candidates:
		for doc, slot := range positions {
			for _, ps := range slot {
				if len(ps) == 0 {
					continue candidates
				}
			}
			if ok, work := minSpanWithin(slot, uint32(window)); ok {
				docs = append(docs, doc)
				stats.CPU += work
			} else {
				stats.CPU += work
			}
		}
		return nil
	})
	return docs, *stats, err
}

// minSpanWithin reports whether some choice of one position per word fits in
// a span <= window, using the classic k-way min-span sweep. It also returns
// the number of comparisons performed, charged as CPU work.
func minSpanWithin(slot [][]uint32, window uint32) (bool, float64) {
	idx := make([]int, len(slot))
	var work float64
	for {
		lo, hi := uint32(1<<31), uint32(0)
		loWord := 0
		for w, ps := range slot {
			p := ps[idx[w]]
			if p < lo {
				lo, loWord = p, w
			}
			if p > hi {
				hi = p
			}
			work++
		}
		if hi-lo+1 <= window {
			return true, work
		}
		idx[loWord]++
		if idx[loWord] >= len(slot[loWord]) {
			return false, work
		}
	}
}
