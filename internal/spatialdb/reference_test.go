package spatialdb

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlq/internal/pagestore"
)

// The ref* functions are Window, Range and KNN as they were before the
// generation-stamped seen array: a per-query seen map over freshly
// allocated cell-ID lists. The differential tests hold the searches to them.

func refCellIDs(db *DB, cx, cy int, stats *ExecStats) ([]uint32, error) {
	idx := cy*db.cfg.GridSize + cx
	n := int(db.cellCount[idx])
	out := make([]uint32, 0, n)
	stats.CPU++
	for _, pid := range db.grid[idx] {
		data, err := db.cache.Get(pid)
		if err != nil {
			return nil, err
		}
		take := db.idsPage
		if n-len(out) < take {
			take = n - len(out)
		}
		for i := 0; i < take; i++ {
			out = append(out, binary.LittleEndian.Uint32(data[i*4:]))
		}
	}
	return out, nil
}

// refRun is the old run: it meters the body's IO.
func refRun(db *DB, body func(stats *ExecStats) error) (ExecStats, error) {
	var stats ExecStats
	meter := db.cache.NewMeter()
	err := body(&stats)
	stats.IO = meter.Cost()
	return stats, err
}

func refWindow(db *DB, wx, wy, ww, wh float64) ([]Object, ExecStats, error) {
	var out []Object
	stats, err := refRun(db, func(stats *ExecStats) error {
		x0, y0 := db.cellOf(wx, wy)
		x1, y1 := db.cellOf(wx+ww, wy+wh)
		seen := make(map[uint32]bool)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				ids, err := refCellIDs(db, cx, cy, stats)
				if err != nil {
					return err
				}
				for _, id := range ids {
					if seen[id] {
						continue
					}
					seen[id] = true
					o, err := db.object(id, stats)
					if err != nil {
						return err
					}
					if o.intersectsWindow(wx, wy, ww, wh) {
						out = append(out, o)
					}
				}
			}
		}
		return nil
	})
	return out, stats, err
}

func refRange(db *DB, x, y, r float64) ([]Object, ExecStats, error) {
	var out []Object
	stats, err := refRun(db, func(stats *ExecStats) error {
		if r < 0 {
			return fmt.Errorf("spatialdb: negative range %g", r)
		}
		x0, y0 := db.cellOf(x-r, y-r)
		x1, y1 := db.cellOf(x+r, y+r)
		seen := make(map[uint32]bool)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				ids, err := refCellIDs(db, cx, cy, stats)
				if err != nil {
					return err
				}
				for _, id := range ids {
					if seen[id] {
						continue
					}
					seen[id] = true
					o, err := db.object(id, stats)
					if err != nil {
						return err
					}
					if o.distTo(x, y) <= r {
						out = append(out, o)
					}
				}
			}
		}
		return nil
	})
	return out, stats, err
}

func refKNN(db *DB, x, y float64, k int) ([]Object, ExecStats, error) {
	var out []Object
	stats, err := refRun(db, func(stats *ExecStats) error {
		if k < 1 {
			return fmt.Errorf("spatialdb: k must be >= 1, got %d", k)
		}
		if k > db.nObjects {
			k = db.nObjects
		}
		g := db.cfg.GridSize
		cw := db.cfg.Extent / float64(g)
		cx, cy := db.cellOf(x, y)
		var h knnHeap
		seen := make(map[uint32]bool)
		examine := func(gx, gy int) error {
			ids, err := refCellIDs(db, gx, gy, stats)
			if err != nil {
				return err
			}
			for _, id := range ids {
				if seen[id] {
					continue
				}
				seen[id] = true
				o, err := db.object(id, stats)
				if err != nil {
					return err
				}
				d := o.distTo(x, y)
				if len(h) < k {
					heap.Push(&h, knnItem{obj: o, dist: d})
				} else if d < h[0].dist {
					h[0] = knnItem{obj: o, dist: d}
					heap.Fix(&h, 0)
				}
			}
			return nil
		}
		for ring := 0; ring < g; ring++ {
			if len(h) == k && float64(ring-1)*cw > h[0].dist {
				break
			}
			visited := false
			for gy := cy - ring; gy <= cy+ring; gy++ {
				if gy < 0 || gy >= g {
					continue
				}
				for gx := cx - ring; gx <= cx+ring; gx++ {
					if gx < 0 || gx >= g {
						continue
					}
					if gx != cx-ring && gx != cx+ring && gy != cy-ring && gy != cy+ring {
						continue
					}
					visited = true
					if err := examine(gx, gy); err != nil {
						return err
					}
				}
			}
			if !visited && ring > 0 {
				break
			}
		}
		out = make([]Object, len(h))
		for i := len(h) - 1; i >= 0; i-- {
			out[i] = heap.Pop(&h).(knnItem).obj
		}
		return nil
	})
	return out, stats, err
}

// spatialQuery is one query of the differential stream: kind 0 Window
// (a, b, c, d), 1 Range (a, b, c), 2 KNN (a, b, k).
type spatialQuery struct {
	kind       int
	a, b, c, d float64
	k          int
}

func (q spatialQuery) String() string {
	return fmt.Sprintf("%s(%.1f, %.1f, %.1f, %.1f, k=%d)", []string{"Window", "Range", "KNN"}[q.kind], q.a, q.b, q.c, q.d, q.k)
}

// diffQuery runs q on db and through the reference on ref, a twin generated
// from the same Config, and fails t unless the errors, CPU and IO costs and
// the results (in order) agree exactly. It returns the error of db's run.
func diffQuery(t *testing.T, label string, db, ref *DB, q spatialQuery) error {
	t.Helper()
	var got, want []Object
	var gs, ws ExecStats
	var gerr, werr error
	switch q.kind {
	case 0:
		got, gs, gerr = db.Window(q.a, q.b, q.c, q.d)
		want, ws, werr = refWindow(ref, q.a, q.b, q.c, q.d)
	case 1:
		got, gs, gerr = db.Range(q.a, q.b, q.c)
		want, ws, werr = refRange(ref, q.a, q.b, q.c)
	default:
		got, gs, gerr = db.KNN(q.a, q.b, q.k)
		want, ws, werr = refKNN(ref, q.a, q.b, q.k)
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
	}
	if math.Float64bits(gs.CPU) != math.Float64bits(ws.CPU) || math.Float64bits(gs.IO) != math.Float64bits(ws.IO) {
		t.Fatalf("%s: CPU/IO %v/%v, reference %v/%v", label, gs.CPU, gs.IO, ws.CPU, ws.IO)
	}
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

// TestSearchesMatchReference runs one seeded stream of Window, Range and
// KNN queries through the seen array and through the map-based reference
// on twin databases whose caches see the same page sequence. The stream
// holds invalid arguments (negative radius, k < 1, k past the object
// count), windows reaching off the map, and every so often a read fault in
// mid-query followed by a clean query.
func TestSearchesMatchReference(t *testing.T) {
	db, ref := twinDBs(t, Config{NumObjects: 2000, GridSize: 16, PageSize: 256, CachePages: 12, Seed: 21})
	rng := rand.New(rand.NewSource(4))
	var invalid, faulted, afterFault int
	lastFaulted := false
	for i := 0; i < 3000; i++ {
		q := spatialQuery{
			kind: rng.Intn(3),
			a:    rng.Float64()*1100 - 50,
			b:    rng.Float64()*1100 - 50,
			c:    rng.Float64() * 150,
			d:    rng.Float64() * 150,
			k:    1 + rng.Intn(40),
		}
		if rng.Intn(40) == 0 {
			q.c = -q.c - 1
			q.k = []int{0, -3, db.NumObjects() + 5}[rng.Intn(3)]
			invalid++
		}
		inject := i%31 == 30
		if inject {
			n := 2 + rng.Intn(4) // at least one page read precedes the fault
			failNthRead(db.Store(), n)
			failNthRead(ref.Store(), n)
		}
		err := diffQuery(t, fmt.Sprintf("query %d %v", i, q), db, ref, q)
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
	}
	if invalid == 0 || faulted < 20 || afterFault < 20 {
		t.Fatalf("stream too tame: %d invalid, %d faulted, %d clean after a fault", invalid, faulted, afterFault)
	}
}

// TestSearchGenerationWrap starts the seen array's generation just short
// of wrapping, over marks stamped with the generations that follow the
// wrap, as if left 2^32 queries ago, and runs queries across the wrap
// against the reference.
func TestSearchGenerationWrap(t *testing.T) {
	db, ref := twinDBs(t, Config{NumObjects: 1500, GridSize: 16, PageSize: 256, CachePages: 12, Seed: 22})
	for i := range db.seen {
		db.seen[i] = uint32(1 + i%4)
	}
	db.gen = math.MaxUint32 - 2
	queries := []spatialQuery{
		{kind: 0, a: 300, b: 300, c: 400, d: 400},
		{kind: 1, a: 500, b: 500, c: 200},
		{kind: 2, a: 480, b: 520, k: 25},
		{kind: 0, a: 350, b: 350, c: 300, d: 300},
		{kind: 1, a: 450, b: 550, c: 250},
		{kind: 2, a: 500, b: 500, k: 60},
	}
	for i, q := range queries {
		diffQuery(t, fmt.Sprintf("query %d %v (gen %d)", i, q, db.gen), db, ref, q)
	}
	if db.gen != uint32(len(queries)-2) {
		t.Fatalf("generation %d after the wrap, want %d", db.gen, len(queries)-2)
	}
}
