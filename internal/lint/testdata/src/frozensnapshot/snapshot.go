// Fixture for the frozensnapshot analyzer, loaded as mlq/internal/quadtree
// so the frozen-type list applies: a minimal arena + Snapshot mirroring the
// real package's shape, plus the write sites the rule must and must not
// flag.
package quadtree

type kidRef struct {
	idx uint32
	ref int32
}

type node struct {
	sum   float64
	count int64
}

type arena struct {
	nodes []node
	kids  []kidRef
}

func (a *arena) addChild(parent int32, idx uint32) int32 {
	a.kids = append(a.kids, kidRef{idx: idx, ref: int32(len(a.nodes))})
	a.nodes = append(a.nodes, node{})
	return int32(len(a.nodes) - 1)
}

func (a *arena) child(n int32, idx uint32) int32 {
	for _, k := range a.kids {
		if k.idx == idx {
			return k.ref
		}
	}
	return -1
}

func (a *arena) add(n int32, v float64) {
	a.nodes[n].sum += v
	a.nodes[n].count++
}

// release puts a slot on the free list, as compression's eviction does.
func (a *arena) release(n int32) {
	a.nodes[n] = node{}
}

// Snapshot mirrors the real immutable snapshot: arena by value plus frozen
// counters.
type Snapshot struct {
	a         arena
	nodeCount int
}

func (s *Snapshot) NodeCount() int { return s.nodeCount }

func mutateField(s *Snapshot) {
	s.nodeCount = 1 // want "frozen"
}

func mutateDeep(s *Snapshot) {
	s.a.nodes[0].sum = 2  // want "frozen"
	s.a.nodes[0].sum += 2 // want "frozen"
	s.a.nodes[0].count++  // want "frozen"
	s.a.kids[0].idx = 3   // want "frozen"
}

func mutateWhole(s *Snapshot) {
	*s = Snapshot{} // want "frozen"
}

func mutateViaArenaMethod(s *Snapshot) {
	s.a.addChild(0, 1) // want "mutating arena method"
	s.a.add(0, 3.5)    // want "mutating arena method"
	s.a.release(1)     // want "mutating arena method"
}

// readsAreFine: lookups, field reads, and rebinding the variable itself are
// not writes through the snapshot.
func readsAreFine(s *Snapshot, other *Snapshot) (int32, int) {
	c := s.a.child(0, 1)
	n := s.nodeCount
	s = other
	_ = s
	return c, n
}

// treeMutationIsFine: the same writes against a plain arena (the mutable
// tree) are the normal insert path and stay legal.
func treeMutationIsFine(a *arena) {
	a.nodes[0].sum = 1
	a.nodes[0].count++
	a.addChild(0, 2)
	a.add(0, 1.5)
}

// constructionIsFine: composite literals build the frozen value; freezing
// starts after.
func constructionIsFine(a arena) *Snapshot {
	return &Snapshot{a: a, nodeCount: len(a.nodes)}
}

// suppressedWrite: a justified //lint:ignore at the site silences the rule.
func suppressedWrite(s *Snapshot) {
	//lint:ignore frozensnapshot fixture: exercising suppression
	s.nodeCount = 7
}
