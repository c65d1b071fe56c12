package quadtree

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is container/heap's view of the same items: the reference the
// typed leafHeap must match pop for pop.
type refHeap []heapItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].sseg < h[j].sseg }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestLeafHeapMatchesContainerHeap runs seeded init/pop/push sequences
// through leafHeap and container/heap side by side. Keys are either drawn
// from {0, 1, 2} — so nearly every comparison is a tie, and only identical
// sift steps give identical pops — or random floats. Every pop, and the
// heap's layout after it, must agree element for element: compression's
// victim order, tie-breaking included, rests on it.
func TestLeafHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() float64 { return rng.Float64() }
		if seed%2 == 1 {
			key = func() float64 { return float64(rng.Intn(3)) }
		}
		n := rng.Intn(64)
		var got leafHeap
		var want refHeap
		for i := 0; i < n; i++ {
			it := heapItem{ref: int32(i), sseg: key()}
			got = append(got, it)
			want = append(want, it)
		}
		got.init()
		heap.Init(&want)
		next := int32(n)
		for step := 0; len(want) > 0; step++ {
			g, w := got.pop(), heap.Pop(&want).(heapItem)
			if g != w {
				t.Fatalf("seed %d step %d: pop %+v, container/heap pops %+v", seed, step, g, w)
			}
			// Compression pushes at most one item per pop; push a few
			// more now and then to exercise up() on a growing heap.
			for k := rng.Intn(3); k > 0 && next < int32(4*n); k-- {
				it := heapItem{ref: next, sseg: key()}
				next++
				got.push(it)
				heap.Push(&want, it)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: length %d, container/heap %d", seed, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: layout differs at %d: %+v vs %+v", seed, step, i, got[i], want[i])
				}
			}
		}
	}
}
