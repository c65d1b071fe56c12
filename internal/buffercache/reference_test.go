package buffercache

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"mlq/internal/pagestore"
)

// refCache is the container/list cache the index-linked lists replaced, cut
// down to replacement and ghost bookkeeping (no retry policy, telemetry or
// events, which sit beside replacement and did not change). It is the
// model TestCacheMatchesReference holds Cache to.
type refCache struct {
	store     *pagestore.Store
	capacity  int
	policy    Policy
	order     *list.List // front = most recent (LRU) / newest (FIFO, Clock)
	byID      map[pagestore.PageID]*list.Element
	ghost     *list.List // evicted-page IDs, most recently evicted first
	ghostByID map[pagestore.PageID]*list.Element

	hits, misses, evictions, ghostHits int64
}

type refEntry struct {
	id   pagestore.PageID
	data []byte
	ref  bool
}

func newRefCache(store *pagestore.Store, capacity int, policy Policy) *refCache {
	return &refCache{
		store:     store,
		capacity:  capacity,
		policy:    policy,
		order:     list.New(),
		byID:      make(map[pagestore.PageID]*list.Element),
		ghost:     list.New(),
		ghostByID: make(map[pagestore.PageID]*list.Element),
	}
}

func (c *refCache) Get(id pagestore.PageID) ([]byte, error) {
	if el, ok := c.byID[id]; ok {
		c.hits++
		e := el.Value.(*refEntry)
		switch c.policy {
		case LRU:
			c.order.MoveToFront(el)
		case Clock:
			e.ref = true
		}
		return e.data, nil
	}
	data, err := c.store.Read(id)
	if err != nil {
		return nil, err
	}
	c.misses++
	if el, ok := c.ghostByID[id]; ok {
		c.ghostHits++
		c.ghost.Remove(el)
		delete(c.ghostByID, id)
	}
	if c.order.Len() >= c.capacity {
		c.evict()
	}
	c.byID[id] = c.order.PushFront(&refEntry{id: id, data: data})
	return data, nil
}

func (c *refCache) evict() {
	c.evictions++
	switch c.policy {
	case LRU, FIFO:
		back := c.order.Back()
		c.order.Remove(back)
		id := back.Value.(*refEntry).id
		delete(c.byID, id)
		c.remember(id)
	case Clock:
		for {
			back := c.order.Back()
			e := back.Value.(*refEntry)
			if e.ref {
				e.ref = false
				c.order.MoveToFront(back)
				continue
			}
			c.order.Remove(back)
			delete(c.byID, e.id)
			c.remember(e.id)
			return
		}
	}
}

func (c *refCache) remember(id pagestore.PageID) {
	if el, ok := c.ghostByID[id]; ok {
		c.ghost.Remove(el)
	}
	c.ghostByID[id] = c.ghost.PushFront(id)
	c.trimGhost()
}

func (c *refCache) trimGhost() {
	for c.ghost.Len() > c.capacity {
		back := c.ghost.Back()
		c.ghost.Remove(back)
		delete(c.ghostByID, back.Value.(pagestore.PageID))
	}
}

func (c *refCache) Resize(pages int) {
	if pages == c.capacity {
		return
	}
	c.capacity = pages
	for c.order.Len() > c.capacity {
		c.evict()
	}
	c.trimGhost()
}

func (c *refCache) Invalidate() {
	c.order.Init()
	c.byID = make(map[pagestore.PageID]*list.Element)
	c.ghost.Init()
	c.ghostByID = make(map[pagestore.PageID]*list.Element)
}

// checkSlots walks both lists and the free chain and fails t unless every
// slot past the two heads is on exactly one of them, the links agree in
// both directions, the counts match, and index maps exactly the listed
// pages to their slots.
func checkSlots(t *testing.T, c *Cache, step int, what string) {
	t.Helper()
	on := make([]int, len(c.slots))
	indexed := 0
	for _, head := range []int32{residentHead, ghostHead} {
		n := 0
		for s := c.slots[head].next; s != head; s = c.slots[s].next {
			if s < 2 || int(s) >= len(c.slots) || c.slots[c.slots[s].next].prev != s {
				t.Fatalf("step %d (%s): list %d broken at slot %d", step, what, head, s)
			}
			sl := c.slots[s]
			if sl.ghost != (head == ghostHead) || (sl.data == nil) != sl.ghost || c.lookup(sl.id) != s {
				t.Fatalf("step %d (%s): slot %d on list %d: ghost %v, data %v, indexed to %d",
					step, what, s, head, sl.ghost, sl.data != nil, c.lookup(sl.id))
			}
			on[s]++
			n++
		}
		if want := []int{c.resident, c.ghosts}[head]; n != want {
			t.Fatalf("step %d (%s): list %d holds %d slots, counted %d", step, what, head, n, want)
		}
		indexed += n
	}
	for s := c.free; s != 0; s = c.slots[s].next {
		on[s]++
	}
	for s := 2; s < len(c.slots); s++ {
		if on[s] != 1 {
			t.Fatalf("step %d (%s): slot %d is on %d lists or chains, want 1", step, what, s, on[s])
		}
	}
	for _, s := range c.index {
		if s != 0 {
			indexed--
		}
	}
	if indexed != 0 {
		t.Fatalf("step %d (%s): index maps %d pages beyond the listed ones", step, what, -indexed)
	}
}

// TestCacheMatchesReference runs one seeded stream of Get, Resize,
// Invalidate and page allocation through Cache and refCache under each
// policy and requires the same page bytes and the same hit, miss,
// eviction, ghost-hit and Len values after every step, with the slot
// array consistent (checkSlots). Pages allocated
// after the cache was built exercise the page-ID index's growth; a skewed
// mix of hot and cold pages keeps both lists and the free chain busy.
func TestCacheMatchesReference(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO, Clock} {
		t.Run(policy.String(), func(t *testing.T) {
			store, err := pagestore.New(64)
			if err != nil {
				t.Fatal(err)
			}
			alloc := func(i int) {
				id := store.Alloc()
				if err := store.Write(id, []byte(fmt.Sprintf("page %d / %d", id, i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				alloc(i)
			}
			c, err := NewWithPolicy(store, 6, policy)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(store, 6, policy)
			rng := rand.New(rand.NewSource(int64(policy) + 1))
			for step := 0; step < 20000; step++ {
				var what string
				switch r := rng.Intn(1000); {
				case r < 3:
					what = "invalidate"
					c.Invalidate()
					ref.Invalidate()
				case r < 23:
					pages := 1 + rng.Intn(16)
					what = fmt.Sprintf("resize %d", pages)
					if err := c.Resize(pages); err != nil {
						t.Fatal(err)
					}
					ref.Resize(pages)
				case r < 30 && store.NumPages() < 400:
					what = "alloc"
					alloc(step)
				default:
					n := store.NumPages()
					id := pagestore.PageID(rng.Intn(n))
					if rng.Intn(3) > 0 { // two in three lookups go to a hot set
						id = pagestore.PageID(rng.Intn(min(n, 12)))
					}
					what = fmt.Sprintf("get %d", id)
					got, err := c.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d (%s): page bytes %q, reference %q", step, what, got, want)
					}
				}
				checkSlots(t, c, step, what)
				if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Evictions() != ref.evictions ||
					c.GhostHits() != ref.ghostHits || c.Len() != ref.order.Len() {
					t.Fatalf("step %d (%s): hits/misses/evictions/ghost hits/len %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
						step, what, c.Hits(), c.Misses(), c.Evictions(), c.GhostHits(), c.Len(),
						ref.hits, ref.misses, ref.evictions, ref.ghostHits, ref.order.Len())
				}
			}
			if c.GhostHits() == 0 || c.Evictions() == 0 || c.Hits() == 0 {
				t.Fatalf("stream too tame: %d ghost hits, %d evictions, %d hits", c.GhostHits(), c.Evictions(), c.Hits())
			}
		})
	}
}
