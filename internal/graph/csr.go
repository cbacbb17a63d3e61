package graph

// mirror is the int-indexed CSR twin of the map-based adjacency: vertex
// index i is g.vertices[i] (so index order and label order coincide and
// every canonical rank tie-break survives the translation), and row i is
// to[start[i]:start[i+1]], sorted ascending by index. It is built once,
// lazily, and shared by all readers; the map adjacency stays the source
// of truth for the label-space API.
type mirror struct {
	start []int32
	to    []int32
	// index maps labels to dense indices. It is built only for graphs
	// whose labels are not 0..n−1; Index resolves those by one compare.
	index *labelIndex
}

// labelIndex is an open-addressing hash table from label to dense index:
// Fibonacci hashing, linear probing, at most half full. A slot holds
// only a dense index; the label it stands for is read back from the
// sorted label array. It answers Index on the per-hop path for graphs
// not labelled 0..n−1: one multiply and usually one probe, where a
// runtime map pays for generic hashing and a binary search for log n
// dependent loads.
type labelIndex struct {
	labels []Vertex // sorted, distinct
	slots  []int32  // a dense index, or −1 for an empty slot
	shift  uint     // 64 − log2(len(slots))
}

// newLabelIndex indexes the sorted, distinct labels by position.
func newLabelIndex(labels []Vertex) *labelIndex {
	bits := uint(1)
	for 1<<bits < 2*len(labels) {
		bits++
	}
	li := &labelIndex{labels: labels, slots: make([]int32, 1<<bits), shift: 64 - bits}
	for i := range li.slots {
		li.slots[i] = -1
	}
	mask := len(li.slots) - 1
	for i, v := range labels {
		h := li.hash(v)
		for li.slots[h] >= 0 {
			h = (h + 1) & mask
		}
		li.slots[h] = int32(i)
	}
	return li
}

func (li *labelIndex) hash(v Vertex) int { return int(uint64(v) * 0x9E3779B97F4A7C15 >> li.shift) }

// get returns v's dense index, reporting presence.
//
//klocal:hotpath
func (li *labelIndex) get(v Vertex) (int32, bool) {
	mask := len(li.slots) - 1
	for h := li.hash(v); ; h = (h + 1) & mask {
		i := li.slots[h]
		if i < 0 {
			return 0, false
		}
		if li.labels[i] == v {
			return i, true
		}
	}
}

// ensureMirror builds the CSR mirror on first use. Graphs are immutable
// after construction, so the sync.Once publication is safe for
// concurrent readers.
func (g *Graph) ensureMirror() *mirror {
	g.csrOnce.Do(func() {
		m := &mirror{start: make([]int32, len(g.vertices)+1)}
		if !g.identityLabels() {
			m.index = newLabelIndex(g.vertices)
		}
		arcs := 0
		for _, v := range g.vertices {
			arcs += len(g.adj[v])
		}
		m.to = make([]int32, 0, arcs)
		for i, v := range g.vertices {
			m.start[i] = int32(len(m.to))
			for _, w := range g.adj[v] {
				j := int32(w)
				if m.index != nil {
					j, _ = m.index.get(w)
				}
				m.to = append(m.to, j)
			}
		}
		m.start[len(g.vertices)] = int32(len(m.to))
		g.csr = m
	})
	return g.csr
}

// identityLabels reports whether the labels are exactly 0..n−1, so
// every label is its own dense index. The labels are sorted and
// distinct, so the two ends decide it.
func (g *Graph) identityLabels() bool {
	n := len(g.vertices)
	return n == 0 || g.vertices[0] == 0 && g.vertices[n-1] == Vertex(n-1)
}

// Index resolves a vertex label to its dense index (its position in the
// sorted vertex order), reporting presence. It is O(1): a label that
// sits at its own position is its index, which settles every graph
// labelled 0..n−1 in one compare; other labellings read the mirror's
// label hash table.
//
//klocal:hotpath
func (g *Graph) Index(v Vertex) (int32, bool) {
	if uint(v) < uint(len(g.vertices)) && g.vertices[v] == v {
		return int32(v), true
	}
	return g.indexSparse(v)
}

// indexSparse is Index's path for labels not at their own position.
func (g *Graph) indexSparse(v Vertex) (int32, bool) {
	if g.identityLabels() {
		return 0, false
	}
	return g.ensureMirror().index.get(v)
}

// VertexAt returns the label of dense index i (inverse of Index).
//
//klocal:hotpath
func (g *Graph) VertexAt(i int32) Vertex { return g.vertices[i] }

// Row returns the neighbours of dense index i as dense indices, sorted
// ascending. The slice aliases the mirror; callers must not mutate it.
//
//klocal:hotpath
func (g *Graph) Row(i int32) []int32 {
	m := g.ensureMirror()
	return m.to[m.start[i]:m.start[i+1]]
}

// SearchScratch is caller-owned working memory for the int-indexed
// search primitive DistScratch: an epoch-marked visited array, a
// distance array and a queue, all sized to the largest graph seen and
// then reused without allocating. Not safe for concurrent use; give
// each worker its own.
type SearchScratch struct {
	mark  []uint32
	dist  []int32
	queue []int32
	epoch uint32
}

// NewSearchScratch returns an empty scratch; the first search sizes it.
func NewSearchScratch() *SearchScratch { return &SearchScratch{} }

// begin readies the scratch for a graph of n vertices.
//
//klocal:hotpath
func (sc *SearchScratch) begin(n int) {
	if len(sc.mark) < n {
		//klocal:allow grows once to the largest graph seen, then reused; steady state pinned by TestSearchScratchAllocs
		sc.mark = make([]uint32, n)
		//klocal:allow same growth-once path as mark above
		sc.dist = make([]int32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: all marks are stale garbage
		clear(sc.mark)
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
}

// seen reports whether index v was reached this search.
func (sc *SearchScratch) seen(v int32) bool { return sc.mark[v] == sc.epoch }

// visit marks index v reached at distance d and enqueues it.
//
//klocal:hotpath
func (sc *SearchScratch) visit(v, d int32) {
	sc.mark[v] = sc.epoch
	sc.dist[v] = d
	sc.queue = append(sc.queue, v)
}

// DistScratch returns the unweighted graph distance between u and v
// (Infinity if disconnected), allocating only into sc. It is
// Dist-identical: same BFS, int-indexed.
//
//klocal:hotpath
func (g *Graph) DistScratch(u, v Vertex, sc *SearchScratch) int {
	ui, uok := g.Index(u)
	vi, vok := g.Index(v)
	if !uok || !vok {
		return Infinity
	}
	if ui == vi {
		return 0
	}
	// Load the mirror once: Row would pass through csrOnce per vertex.
	m := g.ensureMirror()
	sc.begin(len(g.vertices))
	sc.visit(ui, 0)
	for head := 0; head < len(sc.queue); head++ {
		x := sc.queue[head]
		d := sc.dist[x]
		for _, y := range m.to[m.start[x]:m.start[x+1]] {
			if sc.seen(y) {
				continue
			}
			if y == vi {
				return int(d) + 1
			}
			sc.visit(y, d+1)
		}
	}
	return Infinity
}
