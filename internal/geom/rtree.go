package geom

import (
	"container/heap"
	"math"
	"slices"
)

// RTree is a spatial index over rectangles with associated integer payloads
// (typically encoded entity IDs). It supports incremental insertion
// (quadratic-split R-tree) and bulk loading (sort-tile-recursive), and
// answers window (intersection), containment and nearest-neighbour
// queries. It is not safe for concurrent mutation; concurrent readers are
// safe once loading finishes.
type RTree struct {
	root     *rtreeNode
	size     int
	maxEntry int
	minEntry int
	// path records the root-to-leaf path of the last chooseLeaf call so
	// node splits can propagate upward without parent pointers.
	path []*rtreeNode
}

const (
	defaultMaxEntries = 16
	defaultMinEntries = 6
)

type rtreeEntry struct {
	bounds Rect
	child  *rtreeNode // nil for leaf entries
	data   int64
}

type rtreeNode struct {
	entries []rtreeEntry
	leaf    bool
}

// NewRTree returns an empty R-tree with default node capacity.
func NewRTree() *RTree {
	return &RTree{
		root:     &rtreeNode{leaf: true},
		maxEntry: defaultMaxEntries,
		minEntry: defaultMinEntries,
	}
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Insert adds an entry with the given bounds and payload.
func (t *RTree) Insert(bounds Rect, data int64) {
	e := rtreeEntry{bounds: bounds, data: data}
	leaf := t.chooseLeaf(t.root, e)
	leaf.entries = append(leaf.entries, e)
	t.size++
	t.splitUpward(leaf)
}

// chooseLeaf walks down picking the child whose bounds need least
// enlargement, tracking the path via parent pointers computed on the fly.
func (t *RTree) chooseLeaf(n *rtreeNode, e rtreeEntry) *rtreeNode {
	t.path = t.path[:0]
	for !n.leaf {
		t.path = append(t.path, n)
		best := 0
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i, c := range n.entries {
			u := c.bounds.Union(e.bounds)
			enl := u.Area() - c.bounds.Area()
			if enl < bestEnl || (enl == bestEnl && c.bounds.Area() < bestArea) {
				best, bestEnl, bestArea = i, enl, c.bounds.Area()
			}
		}
		n.entries[best].bounds = n.entries[best].bounds.Union(e.bounds)
		n = n.entries[best].child
	}
	return n
}

func (t *RTree) splitUpward(n *rtreeNode) {
	for n != nil && len(n.entries) > t.maxEntry {
		a, b := t.splitNode(n)
		if n == t.root {
			t.root = &rtreeNode{
				leaf: false,
				entries: []rtreeEntry{
					{bounds: nodeBounds(a), child: a},
					{bounds: nodeBounds(b), child: b},
				},
			}
			return
		}
		parent := t.popParent()
		// replace n's entry with a, append b
		for i := range parent.entries {
			if parent.entries[i].child == n {
				parent.entries[i] = rtreeEntry{bounds: nodeBounds(a), child: a}
				break
			}
		}
		parent.entries = append(parent.entries, rtreeEntry{bounds: nodeBounds(b), child: b})
		n = parent
	}
}

func (t *RTree) popParent() *rtreeNode {
	if len(t.path) == 0 {
		return nil
	}
	p := t.path[len(t.path)-1]
	t.path = t.path[:len(t.path)-1]
	return p
}

// splitNode performs a quadratic split of an overfull node.
func (t *RTree) splitNode(n *rtreeNode) (*rtreeNode, *rtreeNode) {
	entries := n.entries
	// pick seeds: pair wasting the most area if grouped
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].bounds.Union(entries[j].bounds)
			waste := u.Area() - entries[i].bounds.Area() - entries[j].bounds.Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	a := &rtreeNode{leaf: n.leaf, entries: []rtreeEntry{entries[s1]}}
	b := &rtreeNode{leaf: n.leaf, entries: []rtreeEntry{entries[s2]}}
	ab, bb := entries[s1].bounds, entries[s2].bounds
	for i, e := range entries {
		if i == s1 || i == s2 {
			continue
		}
		rem := len(entries) - i
		// force assignment if one group must take the rest to reach minEntry
		switch {
		case len(a.entries)+rem <= t.minEntry:
			a.entries = append(a.entries, e)
			ab = ab.Union(e.bounds)
			continue
		case len(b.entries)+rem <= t.minEntry:
			b.entries = append(b.entries, e)
			bb = bb.Union(e.bounds)
			continue
		}
		enlA := ab.Union(e.bounds).Area() - ab.Area()
		enlB := bb.Union(e.bounds).Area() - bb.Area()
		if enlA < enlB || (enlA == enlB && ab.Area() <= bb.Area()) {
			a.entries = append(a.entries, e)
			ab = ab.Union(e.bounds)
		} else {
			b.entries = append(b.entries, e)
			bb = bb.Union(e.bounds)
		}
	}
	return a, b
}

func nodeBounds(n *rtreeNode) Rect {
	b := n.entries[0].bounds
	for _, e := range n.entries[1:] {
		b = b.Union(e.bounds)
	}
	return b
}

// BulkLoad builds the tree from scratch using sort-tile-recursive packing,
// replacing any existing content. It is the preferred way to index a
// dataset known up front (the geostore uses it after ingest).
func (t *RTree) BulkLoad(bounds []Rect, data []int64) {
	if len(bounds) != len(data) {
		panic("geom: BulkLoad bounds/data length mismatch")
	}
	t.size = len(bounds)
	if len(bounds) == 0 {
		t.root = &rtreeNode{leaf: true}
		return
	}
	entries := make([]rtreeEntry, len(bounds))
	for i := range bounds {
		entries[i] = rtreeEntry{bounds: bounds[i], data: data[i]}
	}
	nodes := t.pack(entries, true)
	for len(nodes) > 1 {
		entries = entries[:len(nodes)]
		for i, c := range nodes {
			entries[i] = rtreeEntry{bounds: nodeBounds(c), child: c}
		}
		nodes = t.pack(entries, false)
	}
	t.root = nodes[0]
}

// strKey is one entry's sort key in an STR pass: its centre coordinate
// on the axis being sorted and its position in the entry slice. Sorting
// these 16 pointer-free bytes instead of the entries computes every
// centre once per pass, not twice per comparison.
type strKey struct {
	c float64
	i int32
}

func cmpStrKey(a, b strKey) int {
	switch {
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return 0
}

// pack groups entries into one level of nodes by sort-tile-recursive
// packing: sort by centre X, cut into vertical slices, sort each slice by
// centre Y, and fill nodes in that order.
func (t *RTree) pack(entries []rtreeEntry, leaf bool) []*rtreeNode {
	n := len(entries)
	keys := make([]strKey, n)
	for i, e := range entries {
		keys[i] = strKey{c: e.bounds.Center().X, i: int32(i)}
	}
	slices.SortFunc(keys, cmpStrKey)
	nodeCount := (n + t.maxEntry - 1) / t.maxEntry
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlice := (n + sliceCount - 1) / sliceCount
	nodes := make([]*rtreeNode, 0, nodeCount)
	for s := 0; s < n; s += perSlice {
		slice := keys[s:min(s+perSlice, n)]
		for k := range slice {
			slice[k].c = entries[slice[k].i].bounds.Center().Y
		}
		slices.SortFunc(slice, cmpStrKey)
		for i := 0; i < len(slice); i += t.maxEntry {
			group := slice[i:min(i+t.maxEntry, len(slice))]
			node := &rtreeNode{leaf: leaf, entries: make([]rtreeEntry, len(group))}
			for k, key := range group {
				node.entries[k] = entries[key.i]
			}
			nodes = append(nodes, node)
		}
	}
	return nodes
}

// Search calls fn for every entry whose bounds intersect the window.
// Traversal stops early if fn returns false.
func (t *RTree) Search(window Rect, fn func(bounds Rect, data int64) bool) {
	t.search(t.root, window, fn)
}

func (t *RTree) search(n *rtreeNode, window Rect, fn func(Rect, int64) bool) bool {
	for _, e := range n.entries {
		if !e.bounds.Intersects(window) {
			continue
		}
		if n.leaf {
			if !fn(e.bounds, e.data) {
				return false
			}
		} else if !t.search(e.child, window, fn) {
			return false
		}
	}
	return true
}

// SearchContained calls fn for every entry whose bounds lie entirely inside
// the window.
func (t *RTree) SearchContained(window Rect, fn func(bounds Rect, data int64) bool) {
	t.searchContained(t.root, window, fn)
}

func (t *RTree) searchContained(n *rtreeNode, window Rect, fn func(Rect, int64) bool) bool {
	for _, e := range n.entries {
		if !e.bounds.Intersects(window) {
			continue
		}
		if n.leaf {
			if window.ContainsRect(e.bounds) {
				if !fn(e.bounds, e.data) {
					return false
				}
			}
		} else if !t.searchContained(e.child, window, fn) {
			return false
		}
	}
	return true
}

// nearestCand is one best-first search frontier entry: an interior node
// or a leaf entry, keyed by its rectangle distance to the query point.
type nearestCand struct {
	node *rtreeNode
	ent  rtreeEntry
	dist float64
	leaf bool
}

// nearestQueue is a min-heap over frontier entries (container/heap).
type nearestQueue []nearestCand

func (q nearestQueue) Len() int            { return len(q) }
func (q nearestQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q nearestQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nearestQueue) Push(x interface{}) { *q = append(*q, x.(nearestCand)) }
func (q *nearestQueue) Pop() interface{} {
	old := *q
	n := len(old)
	c := old[n-1]
	*q = old[:n-1]
	return c
}

// Nearest returns the k entries whose bounds are nearest to p (by
// rectangle distance), using best-first search over the tree with a
// container/heap priority queue, so each pop is O(log frontier) instead
// of a linear scan.
func (t *RTree) Nearest(p Point, k int) []int64 {
	if k <= 0 || t.size == 0 {
		return nil
	}
	queue := nearestQueue{{node: t.root, dist: 0}}
	heap.Init(&queue)
	var out []int64
	for queue.Len() > 0 && len(out) < k {
		c := heap.Pop(&queue).(nearestCand)
		if c.leaf {
			out = append(out, c.ent.data)
			continue
		}
		n := c.node
		for _, e := range n.entries {
			d := e.bounds.DistanceToPoint(p)
			if n.leaf {
				heap.Push(&queue, nearestCand{ent: e, dist: d, leaf: true})
			} else {
				heap.Push(&queue, nearestCand{node: e.child, dist: d})
			}
		}
	}
	return out
}

// Stats walks the tree and reports its node count and total entry slots
// (leaf data entries plus internal child entries), for memory
// accounting: each entry carries a Rect and a payload/child word.
func (t *RTree) Stats() (nodes, entries int) {
	var walk func(n *rtreeNode)
	walk = func(n *rtreeNode) {
		nodes++
		entries += len(n.entries)
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			if e.child != nil {
				walk(e.child)
			}
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return nodes, entries
}
