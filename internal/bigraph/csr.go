package bigraph

import (
	"fmt"

	"klocal/internal/graph"
)

// CSR is a compressed-sparse-row adjacency over dense int32 indices.
// Vertex i's neighbours are targets[offsets[i]:offsets[i+1]], sorted
// ascending. Labels are the identity (vertex i has label i) unless a
// labels table is present (FromGraph over a non-dense graph); the table
// is sorted, so index order and label order always coincide and every
// canonical rank tie-break survives the translation.
//
// A CSR is immutable after construction and safe for concurrent readers.
// CSRs backed by an mmap'd file additionally hold the mapping; Close
// releases it (heap-backed CSRs Close as a no-op).
type CSR struct {
	offsets []int64 // len n+1; offsets[0] == 0, non-decreasing
	targets []int32 // len 2m; per-row sorted strictly ascending
	labels  []int64 // nil = identity; else sorted ascending, len n

	mm *mapping // non-nil when offsets/targets view an mmap'd file
}

// NumVertices returns the number of vertices.
func (c *CSR) NumVertices() int { return len(c.offsets) - 1 }

// N returns the number of vertices (Store).
func (c *CSR) N() int {
	if len(c.offsets) == 0 {
		return 0
	}
	return len(c.offsets) - 1
}

// M returns the number of undirected edges (Store).
func (c *CSR) M() int { return len(c.targets) / 2 }

// Bytes returns the in-memory (or mapped) footprint of the adjacency
// arrays in bytes — the numerator of the bytes/vertex scaling metric.
func (c *CSR) Bytes() int64 { return int64(len(c.offsets))*8 + int64(len(c.targets))*4 }

// Index resolves a label to its dense index, reporting presence
// (Store). The binary search is hand-rolled: sort.Search's closure would
// allocate on every lookup, and Index sits under every per-hop accessor.
//
//klocal:hotpath
func (c *CSR) Index(v graph.Vertex) (int32, bool) {
	if c.labels == nil {
		if v < 0 || int(v) >= c.N() {
			return 0, false
		}
		return int32(v), true
	}
	lo, hi := 0, len(c.labels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.labels[mid] < int64(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.labels) && c.labels[lo] == int64(v) {
		return int32(lo), true
	}
	return 0, false
}

// VertexAt returns the label of dense index i (Store; inverse of Index).
//
//klocal:hotpath
func (c *CSR) VertexAt(i int32) graph.Vertex {
	if c.labels == nil {
		return graph.Vertex(i)
	}
	return graph.Vertex(c.labels[i])
}

// Row returns vertex index i's neighbour indices, sorted ascending
// (Store). The slice aliases the CSR's storage: callers must not modify
// it and must not retain it past Close (klifetime enforces this at call
// sites).
//
//klocal:hotpath
func (c *CSR) Row(i int32) []int32 {
	//klocal:allow Row is the borrow-window API itself; retention is checked at every call site instead
	return c.targets[c.offsets[i]:c.offsets[i+1]]
}

// HasVertex reports whether v is a vertex (Store).
func (c *CSR) HasVertex(v graph.Vertex) bool {
	_, ok := c.Index(v)
	return ok
}

// Deg returns the degree of v, 0 if absent (Store).
//
//klocal:hotpath
func (c *CSR) Deg(v graph.Vertex) int {
	i, ok := c.Index(v)
	if !ok {
		return 0
	}
	return int(c.offsets[i+1] - c.offsets[i])
}

// EachAdj calls fn for every neighbour of v in ascending label order
// (Store). Rows are stored sorted by index, and the labels table is
// sorted, so index order is label order.
//
//klocal:hotpath
func (c *CSR) EachAdj(v graph.Vertex, fn func(w graph.Vertex) bool) {
	i, ok := c.Index(v)
	if !ok {
		return
	}
	for _, j := range c.Row(i) {
		if !fn(c.VertexAt(j)) {
			return
		}
	}
}

// EachVertex calls fn for every vertex in ascending label order (Store).
func (c *CSR) EachVertex(fn func(v graph.Vertex) bool) {
	n := c.N()
	for i := int32(0); int(i) < n; i++ {
		if !fn(c.VertexAt(i)) {
			return
		}
	}
}

// HasEdge reports whether {u, v} is an edge (Store) by binary search in
// u's row.
func (c *CSR) HasEdge(u, v graph.Vertex) bool {
	i, ok := c.Index(u)
	if !ok {
		return false
	}
	j, ok := c.Index(v)
	if !ok {
		return false
	}
	return c.hasArc(i, j)
}

// hasArc is HasEdge in index space; hand-rolled for the same reason as
// Index (sort.Search's closure allocates).
//
//klocal:hotpath
func (c *CSR) hasArc(i, j int32) bool {
	row := c.Row(i)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == j
}

// Close releases the backing mmap, if any. The CSR must not be used
// afterwards. Safe to call on heap-backed CSRs and more than once.
func (c *CSR) Close() error {
	if c.mm == nil {
		return nil
	}
	mm := c.mm
	c.mm, c.offsets, c.targets = nil, nil, nil
	return mm.close()
}

// Mapped reports whether the adjacency arrays view an mmap'd file.
func (c *CSR) Mapped() bool { return c.mm != nil }

// FromGraph converts an in-memory graph to a CSR. Dense label sets
// (0..n-1) convert with no labels table; sparse sets keep a sorted
// label table so Store semantics are preserved exactly.
func FromGraph(g *graph.Graph) *CSR {
	vs := g.Vertices() // sorted ascending
	n := len(vs)
	dense := true
	for i, v := range vs {
		if int(v) != i {
			dense = false
			break
		}
	}
	c := &CSR{offsets: make([]int64, n+1)}
	if !dense {
		c.labels = make([]int64, n)
		for i, v := range vs {
			c.labels[i] = int64(v)
		}
	}
	for i, v := range vs {
		c.offsets[i+1] = c.offsets[i] + int64(g.Deg(v))
	}
	c.targets = make([]int32, c.offsets[n])
	pos := c.offsets[0]
	for _, v := range vs {
		g.EachAdj(v, func(w graph.Vertex) bool {
			j, ok := c.Index(w)
			if !ok {
				panic(fmt.Sprintf("bigraph: neighbour %d of %d not a vertex", w, v))
			}
			c.targets[pos] = j
			pos++
			return true
		})
	}
	return c
}

// ToGraph materializes the CSR as an in-memory graph.Graph — for tooling
// and differential tests, not for million-node topologies (the whole
// point of the CSR is not doing this).
func (c *CSR) ToGraph() *graph.Graph {
	n := c.N()
	edges := make([]graph.Edge, 0, c.M())
	isolated := make([]graph.Vertex, 0)
	for i := int32(0); int(i) < n; i++ {
		row := c.Row(i)
		if len(row) == 0 {
			isolated = append(isolated, c.VertexAt(i))
		}
		for _, j := range row {
			if i < j {
				edges = append(edges, graph.Edge{U: c.VertexAt(i), V: c.VertexAt(j)})
			}
		}
	}
	return graph.FromEdges(edges, isolated...)
}

// validate checks structural invariants: monotone offsets, in-range
// targets, per-row strictly ascending (sorted, simple, no self-loops).
// Loaders run it so a corrupt file becomes a typed error, never a panic
// deep in a BFS.
func (c *CSR) validate() error {
	n := c.N()
	if len(c.offsets) == 0 || c.offsets[0] != 0 {
		return fmt.Errorf("%w: offsets must start at 0", ErrCorrupt)
	}
	if c.offsets[n] != int64(len(c.targets)) {
		return fmt.Errorf("%w: offsets end %d != targets length %d", ErrCorrupt, c.offsets[n], len(c.targets))
	}
	for i := 0; i < n; i++ {
		if c.offsets[i+1] < c.offsets[i] {
			return fmt.Errorf("%w: offsets decrease at vertex %d", ErrCorrupt, i)
		}
		row := c.targets[c.offsets[i]:c.offsets[i+1]]
		prev := int32(-1)
		for _, j := range row {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("%w: vertex %d has out-of-range neighbour %d (n=%d)", ErrCorrupt, i, j, n)
			}
			if int(j) == i {
				return fmt.Errorf("%w: vertex %d has a self-loop", ErrCorrupt, i)
			}
			if j <= prev {
				return fmt.Errorf("%w: vertex %d row not strictly ascending", ErrCorrupt, i)
			}
			prev = j
		}
	}
	// Undirected symmetry: every arc has its mirror. Checked second so
	// rows are already known sorted (hasArc binary-searches them).
	for i := 0; i < n; i++ {
		for _, j := range c.Row(int32(i)) {
			if !c.hasArc(j, int32(i)) {
				return fmt.Errorf("%w: arc %d->%d has no mirror", ErrCorrupt, i, j)
			}
		}
	}
	return nil
}
