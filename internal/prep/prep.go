// Package prep implements the paper's k-local preprocessing step
// (Section 5.1): identifying dormant edges on local cycles, constructing
// the routing subgraph G'_k(u), and the global consistent-edge predicate
// used by Lemmas 2, 3 and 5.
//
// Dormancy rule. The paper classifies "the edge of minimum rank on every
// local cycle of u" as dormant. A cycle of length at most 2k through any
// of its own vertices is entirely contained in that vertex's
// k-neighbourhood, so the rule is equivalent, edge by edge, to: an edge
// e = {a,b} of G_k(u) is dormant iff G_k(u) contains a path from a to b of
// length at most 2k−1 using only edges of rank greater than rank(e). We
// apply this criterion to every short cycle visible in G_k(u), a superset
// of the cycles through u. For edges adjacent to u the two readings agree
// exactly (any short cycle through an edge at u passes through u), which
// is all the forwarding rules rely on (Lemma 2); for deeper edges our
// reading removes only globally inconsistent edges, preserving Lemmas 3
// and 5. DESIGN.md discusses the substitution.
package prep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// Policy selects which edge of each local cycle is classified dormant.
// The paper prescribes the minimum-rank edge; Section 6.1 suggests
// exploring other selections to reduce Algorithm 1's dilation, which the
// maximum-rank policy realizes as an ablation. Any globally canonical
// selection preserves the consistency lemmas.
type Policy int

const (
	// PolicyMinRank removes the minimum-rank edge of every local cycle
	// (the paper's rule).
	PolicyMinRank Policy = iota + 1
	// PolicyMaxRank removes the maximum-rank edge instead (the
	// Section 6.1 ablation).
	PolicyMaxRank
)

// String names the policy for experiment output.
func (p Policy) String() string {
	switch p {
	case PolicyMinRank:
		return "min-rank"
	case PolicyMaxRank:
		return "max-rank"
	default:
		return "unknown"
	}
}

// View is the preprocessed local view at a node: the locally identified
// dormant edges, the active roots, and the compact encodings of G_k(u)
// and of the routing subgraph G'_k(u) with its classified components.
// Its only encoding is int-indexed; Reference builds the same view the
// map-based way, as a test oracle.
type View struct {
	Center graph.Vertex
	K      int

	// Dormant lists the edges of G_k(u) classified dormant at this node,
	// in rank order.
	Dormant []graph.Edge
	// ActiveRoots lists the active neighbours of the centre (roots of
	// active components) in rank order. Its length is the centre's active
	// degree.
	ActiveRoots []graph.Vertex
	// C holds the int-indexed encodings the routing decision paths read.
	C Compact
}

// Compact is the int-indexed face of a preprocessed view: flat arrays
// over local indices that the per-hop decision closures read with binary
// searches and array loads only (DESIGN.md §14). It is built once at
// preprocessing time and immutable afterwards, so concurrent routing
// workers share it freely.
type Compact struct {
	// Raw is the compact encoding of G_k(u).
	Raw *nbhd.CompactView
	// NextHop maps each Raw local index t to the canonical next hop from
	// the centre toward t inside G_k(u) (the lowest-labelled neighbour of
	// the centre on a shortest path), or graph.NoVertex when t is the
	// centre itself. Precomputing it turns a per-hop shortest-path BFS
	// into one binary search and a load.
	NextHop []graph.Vertex
	// Routing is the compact encoding of G'_k(u): the dormant-free
	// neighbourhood re-restricted to paths of length at most k rooted at
	// the centre; its Dist column holds the routing distances.
	Routing *nbhd.CompactView
	// Comps are the classified components of G'_k(u) in local index
	// space, heap-owned, ordered by lowest root label.
	Comps []nbhd.CompactComponent
	// CompID maps each Routing local index to its component's position in
	// Comps, or -1 for the centre.
	CompID []int32
}

// NextHopFromCenter returns the canonical next hop from the centre
// toward t inside G_k(u), or graph.NoVertex when t is outside the raw
// view or is the centre — exactly graph.NextHopToward(centre, t) inside
// G_k(u).
//
//klocal:hotpath
func (c *Compact) NextHopFromCenter(t graph.Vertex) graph.Vertex {
	ti, ok := c.Raw.Index(t)
	if !ok {
		return graph.NoVertex
	}
	return c.NextHop[ti]
}

// CompIdxOf returns the position in Comps of the component containing
// routing local index li, or -1 for the centre.
//
//klocal:hotpath
func (c *Compact) CompIdxOf(li int32) int32 { return c.CompID[li] }

// Preprocess computes the view at u for locality k on network g with the
// paper's minimum-rank dormancy policy.
func Preprocess(g *graph.Graph, u graph.Vertex, k int) *View {
	return PreprocessPolicy(g, u, k, PolicyMinRank)
}

// PreprocessPolicy computes the view under an explicit dormancy policy.
func PreprocessPolicy(g *graph.Graph, u graph.Vertex, k int, pol Policy) *View {
	return build(g, u, k, pol)
}

// PreprocessStore computes the view reading topology through a
// bigraph.Store: *bigraph.CSR and *graph.Graph stores extract G_k(u)
// through their dense index spaces, so the whole build is int-indexed.
func PreprocessStore(st bigraph.Store, u graph.Vertex, k int, pol Policy) *View {
	return build(st, u, k, pol)
}

// IsDormant reports whether the view classified e as dormant, by binary
// search in the rank-ordered Dormant list (no per-view edge map).
//
//klocal:hotpath
func (v *View) IsDormant(e graph.Edge) bool {
	e = graph.NewEdge(e.U, e.V)
	lo, hi := 0, len(v.Dormant)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.Dormant[mid].Less(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(v.Dormant) && v.Dormant[lo] == e
}

// ActiveDegree returns the number of active neighbours of the centre
// (Propositions 1–3 bound it by 3, 2 and 1 at k ≥ n/4, n/3, n/2 given the
// matching algorithm's preprocessing).
func (v *View) ActiveDegree() int { return len(v.ActiveRoots) }

// CacheOptions tune the preprocessor's view cache. The zero value means
// an unbounded cache.
type CacheOptions struct {
	// Capacity bounds the number of cached views; a miss on a full cache
	// evicts one resident view, the oldest unless views have been
	// invalidated since (routing workloads revisit sources far more
	// often than they scan, so the choice of victim barely matters).
	// 0 means unbounded.
	Capacity int
}

// CacheStats is a point-in-time snapshot of preprocessor cache activity.
type CacheStats struct {
	// Hits counts At calls served from the cache.
	Hits int64
	// Misses counts At calls that ran preprocessing, including calls on
	// absent vertices (whose empty views are never cached). Concurrent
	// misses on the same vertex each count (both compute; one publish
	// wins), so Misses can slightly exceed the number of distinct
	// vertices.
	Misses int64
	// Evictions counts views discarded to respect Capacity.
	Evictions int64
	// Size is the number of views currently resident.
	Size int64
}

// Delta returns the activity between two snapshots of the same
// preprocessor: the counting fields subtract (s − prev) and Size keeps
// s's absolute value. Dividing a Delta's counts by the scrape interval
// yields rate gauges (hits/s, misses/s, evictions/s) for live
// observability. Counters from a different (e.g. freshly swapped)
// preprocessor would go negative; they clamp to zero so a graph
// hot-swap never reports negative rates.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	d := CacheStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
		Size:      s.Size,
	}
	if d.Hits < 0 {
		d.Hits = 0
	}
	if d.Misses < 0 {
		d.Misses = 0
	}
	if d.Evictions < 0 {
		d.Evictions = 0
	}
	return d
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// statStripes is the number of hit/miss counter stripes; a lookup
// counts in the stripe its vertex index selects.
const statStripes = 8

// statStripe is one cache line of hit/miss counters, so counting from
// different workers on different vertices never false-shares.
type statStripe struct {
	hits   atomic.Int64
	misses atomic.Int64
	_      [48]byte
}

// Preprocessor caches per-node views for a fixed network and locality.
// The preprocessing step "need not be repeated unless the network topology
// changes", so views are computed once per node and shared.
//
// The cache is one table of atomic view pointers addressed by the
// store's dense vertex index, so a warm At is an Index and one atomic
// load. A miss builds the view outside any lock and publishes it with a
// compare-and-swap; under concurrent misses on one vertex both callers
// compute and the first publish wins, which beats serializing misses
// behind preprocessing (BFS-heavy) critical sections. Bounded caches
// publish under mu instead, which also guards the ring of resident
// indices that eviction walks. Views are immutable after construction,
// so it is safe for concurrent use.
type Preprocessor struct {
	st  bigraph.Store
	g   *graph.Graph // non-nil only when st is a materialized *graph.Graph
	k   int
	pol Policy

	// table[i] is the resident view of the vertex with dense index i,
	// or nil.
	table    []atomic.Pointer[View]
	capacity int // as configured; 0 = unbounded

	// Bounded caches only. ring holds the index of every resident view
	// once, or -1 in a free slot. hand is the next slot to fill; once
	// the ring is full it is also the slot evicted, so without
	// invalidations eviction follows publication order.
	mu   sync.Mutex
	ring []int32
	hand int

	size      atomic.Int64
	evictions atomic.Int64
	_         [64]byte // keep the counted stripes off the fields above
	stats     [statStripes]statStripe
}

// NewPreprocessor returns a caching preprocessor for network g at
// locality k with the paper's minimum-rank policy.
func NewPreprocessor(g *graph.Graph, k int) *Preprocessor {
	return NewPreprocessorPolicy(g, k, PolicyMinRank)
}

// NewPreprocessorPolicy returns a caching preprocessor under an explicit
// dormancy policy.
func NewPreprocessorPolicy(g *graph.Graph, k int, pol Policy) *Preprocessor {
	return NewPreprocessorOpts(g, k, pol, CacheOptions{})
}

// NewPreprocessorOpts returns a caching preprocessor with explicit cache
// tuning — the traffic engine's entry point.
func NewPreprocessorOpts(g *graph.Graph, k int, pol Policy, opts CacheOptions) *Preprocessor {
	return NewPreprocessorStoreOpts(g, k, pol, opts)
}

// NewPreprocessorStore returns a caching preprocessor over any
// bigraph.Store (mmap'd CSR files included) with default cache options.
func NewPreprocessorStore(st bigraph.Store, k int, pol Policy) *Preprocessor {
	return NewPreprocessorStoreOpts(st, k, pol, CacheOptions{})
}

// NewPreprocessorStoreOpts is NewPreprocessorOpts over any bigraph.Store.
func NewPreprocessorStoreOpts(st bigraph.Store, k int, pol Policy, opts CacheOptions) *Preprocessor {
	p := &Preprocessor{
		st:       st,
		k:        k,
		pol:      pol,
		table:    make([]atomic.Pointer[View], st.N()),
		capacity: opts.Capacity,
	}
	if g, ok := st.(*graph.Graph); ok {
		p.g = g
	}
	if p.capacity > 0 {
		// The table never holds more than N views, so a larger
		// capacity needs no more ring than that.
		p.ring = make([]int32, min(p.capacity, len(p.table)))
		for i := range p.ring {
			p.ring[i] = -1
		}
	}
	return p
}

// K returns the locality parameter.
func (p *Preprocessor) K() int { return p.k }

// Graph returns the underlying network as a *graph.Graph, or nil for a
// store-backed preprocessor (use Store for the universal handle).
func (p *Preprocessor) Graph() *graph.Graph { return p.g }

// Store returns the underlying network store (never nil).
func (p *Preprocessor) Store() bigraph.Store { return p.st }

// Policy returns the dormancy policy.
func (p *Preprocessor) Policy() Policy { return p.pol }

// Stats returns a snapshot of cache activity, summed over the stripes.
func (p *Preprocessor) Stats() CacheStats {
	s := CacheStats{Evictions: p.evictions.Load(), Size: p.size.Load()}
	for i := range p.stats {
		s.Hits += p.stats[i].hits.Load()
		s.Misses += p.stats[i].misses.Load()
	}
	return s
}

// At returns the (cached) view at u. A warm hit is one Index, one
// atomic load and one striped counter increment: no lock, no map. An
// absent vertex gets the empty view, built and not cached.
//
//klocal:hotpath
func (p *Preprocessor) At(u graph.Vertex) *View {
	i, ok := p.st.Index(u)
	if !ok {
		p.stats[0].misses.Add(1)
		return PreprocessStore(p.st, u, p.k, p.pol)
	}
	sp := &p.stats[i&(statStripes-1)]
	if v := p.table[i].Load(); v != nil {
		sp.hits.Add(1)
		return v
	}
	sp.misses.Add(1)
	return p.publish(i, PreprocessStore(p.st, u, p.k, p.pol))
}

// Resident returns the cached view at u without building it and
// without counting a hit or a miss, or nil when none is resident.
//
//klocal:hotpath
func (p *Preprocessor) Resident(u graph.Vertex) *View {
	i, ok := p.st.Index(u)
	if !ok {
		return nil
	}
	return p.table[i].Load()
}

// publish installs v as the view at index i unless a concurrent miss
// got there first, and returns the view every caller shares.
func (p *Preprocessor) publish(i int32, v *View) *View {
	if p.ring != nil {
		return p.publishBounded(i, v)
	}
	for {
		if p.table[i].CompareAndSwap(nil, v) {
			p.size.Add(1)
			return v
		}
		// The loser adopts the winner's view. A concurrent Invalidate
		// may have cleared it again, in which case the CAS is retried.
		if cur := p.table[i].Load(); cur != nil {
			return cur
		}
	}
}

// publishBounded is publish for a bounded cache: under mu, it takes the
// next free ring slot, or evicts the view in the hand's slot when the
// ring is full.
func (p *Preprocessor) publishBounded(i int32, v *View) *View {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := p.table[i].Load(); cur != nil {
		return cur
	}
	full := int(p.size.Load()) >= len(p.ring)
	for !full && p.ring[p.hand] >= 0 {
		p.hand = (p.hand + 1) % len(p.ring)
	}
	if old := p.ring[p.hand]; old >= 0 {
		p.table[old].Store(nil)
		p.size.Add(-1)
		p.evictions.Add(1)
	}
	p.ring[p.hand] = i
	p.hand = (p.hand + 1) % len(p.ring)
	p.table[i].Store(v)
	p.size.Add(1)
	return v
}

// Prewarm computes and caches the view of every vertex using `workers`
// goroutines (GOMAXPROCS when ≤ 0), so later routing never pays the
// preprocessing latency. With a bounded cache smaller than the vertex
// count, prewarming fills the cache with the lowest-labelled vertices
// and stops.
func (p *Preprocessor) Prewarm(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	limit := len(p.table)
	if p.capacity > 0 && limit > p.capacity {
		limit = p.capacity
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				p.At(p.st.VertexAt(int32(i)))
			}
		}()
	}
	wg.Wait()
}

// ConsistentEdges returns the globally consistent edges of g at locality
// k: edges that no node classifies dormant. By Lemma 3 the consistent
// subgraph connects every vertex pair; by Lemma 5 it has girth at least
// 2k+1.
func ConsistentEdges(g *graph.Graph, k int) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		inconsistent := g.HasPathAvoiding(e.U, e.V, 2*k-1, func(f graph.Edge) bool {
			return e.Less(f)
		})
		if !inconsistent {
			out = append(out, e)
		}
	}
	return out
}

// ConsistentSubgraph returns g restricted to its consistent edges (all
// vertices kept).
func ConsistentSubgraph(g *graph.Graph, k int) *graph.Graph {
	keep := make(map[graph.Edge]bool)
	for _, e := range ConsistentEdges(g, k) {
		keep[e] = true
	}
	return g.FilterEdges(func(e graph.Edge) bool { return keep[e] })
}
