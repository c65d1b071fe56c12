// Package spatialdb is a miniature spatial database: a synthetic clustered
// map of rectangles (standing in for the paper's "urban areas of
// Pennsylvania" dataset), a grid index serialized onto disk pages, and the
// paper's three spatial-search UDFs — K-nearest-neighbors, window, and range
// search — executed through an LRU buffer cache with instrumented CPU and
// IO costs. See DESIGN.md §3 for the substitution rationale.
package spatialdb

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"mlq/internal/buffercache"
	"mlq/internal/pagestore"
)

// Object is one rectangle on the map (an "urban area").
type Object struct {
	ID   uint32
	X, Y float64 // lower-left corner
	W, H float64 // extents
}

// objBytes is the on-page record size: id(4) + 4 float32 coordinates.
const objBytes = 20

// CenterX returns the rectangle's center X coordinate.
func (o Object) CenterX() float64 { return o.X + o.W/2 }

// CenterY returns the rectangle's center Y coordinate.
func (o Object) CenterY() float64 { return o.Y + o.H/2 }

// distTo returns the Euclidean distance from (x, y) to the rectangle
// (zero when the point lies inside it).
func (o Object) distTo(x, y float64) float64 {
	dx := math.Max(0, math.Max(o.X-x, x-(o.X+o.W)))
	dy := math.Max(0, math.Max(o.Y-y, y-(o.Y+o.H)))
	return math.Hypot(dx, dy)
}

// intersectsWindow reports whether the object overlaps the axis-aligned
// window [wx, wx+ww] x [wy, wy+wh].
func (o Object) intersectsWindow(wx, wy, ww, wh float64) bool {
	return o.X <= wx+ww && wx <= o.X+o.W && o.Y <= wy+wh && wy <= o.Y+o.H
}

// Config parameterizes map generation.
type Config struct {
	// Extent is the square map's side length. Default 1000.
	Extent float64
	// NumObjects is the number of rectangles. Default 20000.
	NumObjects int
	// NumClusters controls spatial skew. Default 12.
	NumClusters int
	// ClusterSigma is the cluster spread as a fraction of Extent.
	// Default 0.06.
	ClusterSigma float64
	// MaxSize is the largest rectangle extent. Default 8.
	MaxSize float64
	// GridSize is the index resolution (GridSize x GridSize cells).
	// Default 32.
	GridSize int
	// PageSize is the disk page size. Default pagestore.DefaultPageSize.
	PageSize int
	// CachePages is the buffer-cache capacity. Default 64.
	CachePages int
	// CachePolicy is the buffer-cache replacement policy (default LRU).
	CachePolicy buffercache.Policy
	// Seed drives map generation.
	Seed int64
}

func (c Config) withDefaults() Config {
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.Extent == 0 {
		c.Extent = 1000
	}
	if c.NumObjects == 0 {
		c.NumObjects = 20000
	}
	if c.NumClusters == 0 {
		c.NumClusters = 12
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.ClusterSigma == 0 {
		c.ClusterSigma = 0.06
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.MaxSize == 0 {
		c.MaxSize = 8
	}
	if c.GridSize == 0 {
		c.GridSize = 32
	}
	if c.CachePages == 0 {
		c.CachePages = 64
	}
	return c
}

// ExecStats reports one UDF execution's measured costs.
type ExecStats struct {
	// CPU counts work units: objects examined plus cells visited.
	CPU float64
	// IO is the modeled IO cost: physical page reads (buffer-cache misses)
	// plus any retry/slow-disk latency the cache charged, in clean-read
	// equivalents. Equals the plain miss count on a healthy disk.
	IO float64
	// Wall is the real execution time.
	Wall time.Duration
}

// DB is a loaded spatial database. A DB is not safe for concurrent use:
// every query goes through its buffer cache and its per-query scratch.
type DB struct {
	cfg   Config
	store *pagestore.Store
	cache *buffercache.Cache

	objPages   []pagestore.PageID // object records, objPerPage per page
	objPerPage int
	nObjects   int

	grid      [][]pagestore.PageID // per cell: pages of object IDs
	cellCount []int32              // per cell: number of IDs
	idsPage   int                  // IDs per cell page

	// Per-query scratch, reused across queries. seen[id] == gen marks
	// object id examined by the current query, so bumping gen clears it.
	seen  []uint32
	gen   uint32
	ids   []uint32 // the grid cell's object IDs being scanned
	found []Object // Window and Range results before the caller's copy
}

// Generate builds the clustered map, serializes objects and the grid index
// to simulated disk, and returns the ready-to-query database.
func Generate(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if cfg.NumObjects < 1 || cfg.NumClusters < 1 || cfg.GridSize < 1 {
		return nil, fmt.Errorf("spatialdb: NumObjects, NumClusters, GridSize must be >= 1")
	}
	if cfg.Extent <= 0 || cfg.MaxSize <= 0 {
		return nil, fmt.Errorf("spatialdb: Extent and MaxSize must be positive")
	}
	store, err := pagestore.New(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cache, err := buffercache.NewWithPolicy(store, cfg.CachePages, cfg.CachePolicy)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Step 1: clustered rectangles.
	centers := make([][2]float64, cfg.NumClusters)
	for i := range centers {
		centers[i] = [2]float64{rng.Float64() * cfg.Extent, rng.Float64() * cfg.Extent}
	}
	objects := make([]Object, cfg.NumObjects)
	clamp := func(v float64) float64 {
		return math.Min(math.Max(v, 0), cfg.Extent-cfg.MaxSize)
	}
	for i := range objects {
		c := centers[rng.Intn(len(centers))]
		objects[i] = Object{
			ID: uint32(i),
			X:  clamp(c[0] + rng.NormFloat64()*cfg.ClusterSigma*cfg.Extent),
			Y:  clamp(c[1] + rng.NormFloat64()*cfg.ClusterSigma*cfg.Extent),
			W:  0.5 + rng.Float64()*(cfg.MaxSize-0.5),
			H:  0.5 + rng.Float64()*(cfg.MaxSize-0.5),
		}
	}

	db := &DB{
		cfg:        cfg,
		store:      store,
		cache:      cache,
		objPerPage: store.PageSize() / objBytes,
		nObjects:   cfg.NumObjects,
		idsPage:    store.PageSize() / 4,
	}

	// Step 2: object pages.
	buf := make([]byte, store.PageSize())
	for start := 0; start < len(objects); start += db.objPerPage {
		end := start + db.objPerPage
		if end > len(objects) {
			end = len(objects)
		}
		for i, o := range objects[start:end] {
			off := i * objBytes
			binary.LittleEndian.PutUint32(buf[off:], o.ID)
			binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(float32(o.X)))
			binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(float32(o.Y)))
			binary.LittleEndian.PutUint32(buf[off+12:], math.Float32bits(float32(o.W)))
			binary.LittleEndian.PutUint32(buf[off+16:], math.Float32bits(float32(o.H)))
		}
		id := store.Alloc()
		if err := store.Write(id, buf[:(end-start)*objBytes]); err != nil {
			return nil, err
		}
		db.objPages = append(db.objPages, id)
	}
	db.seen = make([]uint32, len(db.objPages)*db.objPerPage)

	// Step 3: grid index — each object registered in every overlapping cell.
	g := cfg.GridSize
	cells := make([][]uint32, g*g)
	for _, o := range objects {
		x0, y0 := db.cellOf(o.X, o.Y)
		x1, y1 := db.cellOf(o.X+o.W, o.Y+o.H)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				idx := cy*g + cx
				cells[idx] = append(cells[idx], o.ID)
			}
		}
	}
	db.grid = make([][]pagestore.PageID, g*g)
	db.cellCount = make([]int32, g*g)
	for idx, ids := range cells {
		db.cellCount[idx] = int32(len(ids))
		for start := 0; start < len(ids); start += db.idsPage {
			end := start + db.idsPage
			if end > len(ids) {
				end = len(ids)
			}
			for i, oid := range ids[start:end] {
				binary.LittleEndian.PutUint32(buf[i*4:], oid)
			}
			pid := store.Alloc()
			if err := store.Write(pid, buf[:(end-start)*4]); err != nil {
				return nil, err
			}
			db.grid[idx] = append(db.grid[idx], pid)
		}
	}
	return db, nil
}

// cellOf maps a coordinate to grid cell indices, clamped to the grid.
func (db *DB) cellOf(x, y float64) (cx, cy int) {
	g := db.cfg.GridSize
	cw := db.cfg.Extent / float64(g)
	cx = int(x / cw)
	cy = int(y / cw)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= g {
		cx = g - 1
	}
	if cy >= g {
		cy = g - 1
	}
	return cx, cy
}

// NumObjects returns the number of rectangles on the map.
func (db *DB) NumObjects() int { return db.nObjects }

// Extent returns the map's side length.
func (db *DB) Extent() float64 { return db.cfg.Extent }

// Cache exposes the buffer cache (for experiment setup).
func (db *DB) Cache() *buffercache.Cache { return db.cache }

// Store exposes the underlying page store.
func (db *DB) Store() *pagestore.Store { return db.store }

// object fetches one object record by ID through the buffer cache.
func (db *DB) object(id uint32, stats *ExecStats) (Object, error) {
	page := int(id) / db.objPerPage
	if page >= len(db.objPages) {
		return Object{}, fmt.Errorf("spatialdb: object %d out of range", id)
	}
	data, err := db.cache.Get(db.objPages[page])
	if err != nil {
		return Object{}, err
	}
	off := (int(id) % db.objPerPage) * objBytes
	stats.CPU++
	return Object{
		ID: binary.LittleEndian.Uint32(data[off:]),
		X:  float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:]))),
		Y:  float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+8:]))),
		W:  float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+12:]))),
		H:  float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+16:]))),
	}, nil
}

// cellIDs fetches the object IDs registered in grid cell (cx, cy) into the
// DB's reused buffer, so the slice is valid only until the next call.
func (db *DB) cellIDs(cx, cy int, stats *ExecStats) ([]uint32, error) {
	idx := cy*db.cfg.GridSize + cx
	n := int(db.cellCount[idx])
	out := db.ids[:0]
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
	db.ids = out
	return out, nil
}

// begin starts a query: it bumps the generation, which marks every object
// unexamined at once, and returns the new generation.
func (db *DB) begin() uint32 {
	db.gen++
	if db.gen == 0 {
		// Wrapped: marks left 2^32 queries ago would match.
		clear(db.seen)
		db.gen = 1
	}
	return db.gen
}

// firstVisit reports whether the query of generation gen examines object
// id for the first time, and marks it examined. An ID past the object
// pages is new every time; db.object rejects it.
func (db *DB) firstVisit(id, gen uint32) bool {
	if int(id) >= len(db.seen) {
		return true
	}
	if db.seen[id] == gen {
		return false
	}
	db.seen[id] = gen
	return true
}

// takeFound returns a copy of the results collected in db.found, or nil
// when there are none.
func (db *DB) takeFound() []Object {
	if len(db.found) == 0 {
		return nil
	}
	return slices.Clone(db.found)
}

// run runs a query body with IO metering and wall-clock timing into stats.
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

// Window returns the objects intersecting the window with lower-left corner
// (wx, wy) and extents (ww, wh) — the paper's window-search UDF.
func (db *DB) Window(wx, wy, ww, wh float64) ([]Object, ExecStats, error) {
	db.found = db.found[:0]
	stats := new(ExecStats)
	err := db.run(stats, func() error {
		x0, y0 := db.cellOf(wx, wy)
		x1, y1 := db.cellOf(wx+ww, wy+wh)
		gen := db.begin()
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				ids, err := db.cellIDs(cx, cy, stats)
				if err != nil {
					return err
				}
				for _, id := range ids {
					if !db.firstVisit(id, gen) {
						continue
					}
					o, err := db.object(id, stats)
					if err != nil {
						return err
					}
					if o.intersectsWindow(wx, wy, ww, wh) {
						db.found = append(db.found, o)
					}
				}
			}
		}
		return nil
	})
	return db.takeFound(), *stats, err
}

// Range returns the objects within distance r of the point (x, y) — the
// paper's range-search UDF.
func (db *DB) Range(x, y, r float64) ([]Object, ExecStats, error) {
	db.found = db.found[:0]
	stats := new(ExecStats)
	err := db.run(stats, func() error {
		if r < 0 {
			return fmt.Errorf("spatialdb: negative range %g", r)
		}
		x0, y0 := db.cellOf(x-r, y-r)
		x1, y1 := db.cellOf(x+r, y+r)
		gen := db.begin()
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				ids, err := db.cellIDs(cx, cy, stats)
				if err != nil {
					return err
				}
				for _, id := range ids {
					if !db.firstVisit(id, gen) {
						continue
					}
					o, err := db.object(id, stats)
					if err != nil {
						return err
					}
					if o.distTo(x, y) <= r {
						db.found = append(db.found, o)
					}
				}
			}
		}
		return nil
	})
	return db.takeFound(), *stats, err
}

// knnItem is a max-heap entry so the farthest of the current k is on top.
type knnItem struct {
	obj  Object
	dist float64
}

type knnHeap []knnItem

func (h knnHeap) Len() int            { return len(h) }
func (h knnHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h knnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x interface{}) { *h = append(*h, x.(knnItem)) }
func (h *knnHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// KNN returns the k objects nearest to (x, y) by rectangle distance,
// searched via expanding rings of grid cells — the paper's K-nearest-
// neighbors UDF. Results are ordered nearest first.
func (db *DB) KNN(x, y float64, k int) ([]Object, ExecStats, error) {
	var out []Object
	stats := new(ExecStats)
	err := db.run(stats, func() error {
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
		gen := db.begin()
		examine := func(gx, gy int) error {
			ids, err := db.cellIDs(gx, gy, stats)
			if err != nil {
				return err
			}
			for _, id := range ids {
				if !db.firstVisit(id, gen) {
					continue
				}
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
			// Once we hold k candidates, stop when no object in this
			// ring can beat the current k-th distance: the ring's
			// cells are at least (ring-1) cell-widths away.
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
					// Ring perimeter only.
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
				break // expanded past the whole grid
			}
		}
		out = make([]Object, len(h))
		for i := len(h) - 1; i >= 0; i-- {
			out[i] = heap.Pop(&h).(knnItem).obj
		}
		return nil
	})
	return out, *stats, err
}
