// Package engine is the high-throughput traffic layer: it routes batches
// of (s, t) requests concurrently over any of the paper's algorithms.
//
// The pieces:
//
//   - Snapshot: an immutable binding of (network, locality, algorithm)
//     whose per-vertex preprocessing lives behind a lazily-populated,
//     optionally size-bounded view table (prep.Preprocessor), so the
//     paper's "preprocessing need not be repeated" observation is
//     realized once per source vertex instead of once per message.
//
//   - Engine: a worker-pool executor with a bounded request queue
//     (Submit blocks when full — backpressure, never unbounded memory)
//     and per-worker metric shards merged into a metrics.Report.
//
//   - Workload: pluggable deterministic request generators — uniform
//     random pairs, Zipf-skewed destinations, all-pairs, and the paper's
//     adversarial constructions from internal/adversary.
package engine

import (
	"fmt"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/sim"
)

// Snapshot is an immutable view of a network bound to one algorithm at
// one locality. It is safe for concurrent use: the graph never mutates,
// the routing function is shared (see route's goroutine-safety
// contracts), and preprocessing is cached in the preprocessor's view
// table.
// Build a new Snapshot when the topology changes.
type Snapshot struct {
	st  bigraph.Store
	g   *graph.Graph // nil for store-backed snapshots
	k   int
	alg route.Algorithm
	f   route.Func
	pre *prep.Preprocessor // nil for algorithms without preprocessing
}

// SnapshotOptions tune snapshot construction.
type SnapshotOptions struct {
	// Cache tunes the view cache of preprocessed algorithms.
	Cache prep.CacheOptions
	// Prewarm computes every vertex's view at construction using this
	// many goroutines (0 = no prewarm, <0 = GOMAXPROCS).
	Prewarm int
}

// NewSnapshot binds alg to (g, k) with default cache options and no
// prewarm. k = 0 means the algorithm's own threshold T(n) (minimum 1).
func NewSnapshot(g *graph.Graph, k int, alg route.Algorithm) (*Snapshot, error) {
	return NewSnapshotOpts(g, k, alg, SnapshotOptions{})
}

// NewSnapshotOpts binds alg to (g, k) under explicit options.
func NewSnapshotOpts(g *graph.Graph, k int, alg route.Algorithm, opts SnapshotOptions) (*Snapshot, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("engine: empty network")
	}
	if k == 0 {
		k = alg.MinK(g.N())
		if k == 0 {
			k = 1
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("engine: negative locality %d", k)
	}
	s := &Snapshot{st: g, g: g, k: k, alg: alg}
	if alg.BindCached != nil {
		s.pre = prep.NewPreprocessorOpts(g, k, alg.Policy, opts.Cache)
		s.f = alg.BindCached(s.pre)
	} else {
		s.f = alg.Bind(g, k)
	}
	s.prewarm(opts)
	return s, nil
}

// NewSnapshotStore binds alg to a bigraph.Store at locality k — the
// million-node entry point: the store may be an mmap'd CSR file, and
// routing never materializes the network as a *graph.Graph. A store that
// is itself a *graph.Graph takes the classic path (full metrics). k = 0
// means the algorithm's own threshold T(n) (minimum 1).
//
// Store-backed results have Result.Dist == 0 ("unknown"): stretch metrics
// are skipped, delivery/loop/error counters are exact.
func NewSnapshotStore(st bigraph.Store, k int, alg route.Algorithm, opts SnapshotOptions) (*Snapshot, error) {
	if g, ok := st.(*graph.Graph); ok {
		return NewSnapshotOpts(g, k, alg, opts)
	}
	if st == nil || st.N() == 0 {
		return nil, fmt.Errorf("engine: empty network")
	}
	if k == 0 {
		k = alg.MinK(st.N())
		if k == 0 {
			k = 1
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("engine: negative locality %d", k)
	}
	s := &Snapshot{st: st, k: k, alg: alg}
	switch {
	case alg.BindCached != nil:
		s.pre = prep.NewPreprocessorStoreOpts(st, k, alg.Policy, opts.Cache)
		s.f = alg.BindCached(s.pre)
	case alg.BindStore != nil:
		s.f = alg.BindStore(st, k)
	default:
		return nil, fmt.Errorf("engine: algorithm %s needs full topology and cannot bind to a graph store", alg.Name)
	}
	s.prewarm(opts)
	return s, nil
}

func (s *Snapshot) prewarm(opts SnapshotOptions) {
	if opts.Prewarm != 0 && s.pre != nil {
		w := opts.Prewarm
		if w < 0 {
			w = 0 // prep interprets ≤0 as GOMAXPROCS
		}
		s.pre.Prewarm(w)
	}
}

// Incremental returns a snapshot over the post-delta graph next that
// adopts every cached view of s except those of the dirty vertices
// (churn.Apply's output) — the churn fast path: instead of re-running
// preprocessing for all n vertices, only the |dirty| views inside the
// k-ball of the delta are recomputed, lazily on first use. s itself is
// untouched and remains fully consistent, so in-flight routes on the
// old epoch never observe the new topology.
//
// Algorithms without a cached-preprocessing binding (alg.BindCached ==
// nil) have no views to carry over; they rebind against next directly,
// which is still build-cost-free for stateless algorithms.
func (s *Snapshot) Incremental(next *graph.Graph, dirty []graph.Vertex) (*Snapshot, error) {
	if next == nil || next.N() == 0 {
		return nil, fmt.Errorf("engine: incremental swap to empty network")
	}
	ns := &Snapshot{st: next, g: next, k: s.k, alg: s.alg}
	if s.pre != nil {
		ns.pre = s.pre.Derive(next, dirty)
		ns.f = s.alg.BindCached(ns.pre)
	} else {
		ns.f = s.alg.Bind(next, s.k)
	}
	return ns, nil
}

// Graph returns the underlying network as a *graph.Graph, or nil for
// store-backed snapshots (use Store for the universal handle).
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Store returns the underlying network store (never nil).
func (s *Snapshot) Store() bigraph.Store { return s.st }

// K returns the locality parameter the snapshot is bound at.
func (s *Snapshot) K() int { return s.k }

// Algorithm returns the bound algorithm descriptor.
func (s *Snapshot) Algorithm() route.Algorithm { return s.alg }

// Func returns the shared bound routing function.
func (s *Snapshot) Func() route.Func { return s.f }

// CacheStats reports the view-cache activity, or the zero value for
// algorithms without preprocessing.
func (s *Snapshot) CacheStats() prep.CacheStats {
	if s.pre == nil {
		return prep.CacheStats{}
	}
	return s.pre.Stats()
}

// Route routes one message on the snapshot (the engine's per-request
// body, also usable standalone). Store-backed snapshots skip the global
// dist(s, t) computation (Result.Dist stays 0).
func (s *Snapshot) Route(src, dst graph.Vertex, maxSteps int) *sim.Result {
	return s.RouteScratch(src, dst, maxSteps, sim.NewScratch())
}

// RouteScratch is Route allocating only into sc — the engine workers'
// per-request body. The returned Result is owned by sc (sim.RunScratch's
// contract): valid until the next route with the same scratch, Clone to
// retain.
//
//klocal:hotpath
func (s *Snapshot) RouteScratch(src, dst graph.Vertex, maxSteps int, sc *sim.Scratch) *sim.Result {
	opts := sim.Options{
		MaxSteps:         maxSteps,
		DetectLoops:      !s.alg.Randomized,
		PredecessorAware: s.alg.PredecessorAware,
	}
	res := sim.RunStoreScratch(s.st, sim.Func(s.f), src, dst, opts, sc)
	if s.g != nil {
		res.Dist = s.dist(src, dst, sc)
	}
	return res
}

// dist returns dist(src, dst) on the snapshot's graph. When dst lies in
// G_k(src) and src's view is cached, the view's raw distance column
// already holds it: every path of length at most k from src lies in
// G_k(src), so its BFS distance is the global one. Only a dst beyond
// the view costs a whole-graph search. The view is read with Resident,
// so stretch accounting never counts as a cache hit.
//
//klocal:hotpath
func (s *Snapshot) dist(src, dst graph.Vertex, sc *sim.Scratch) int {
	if s.pre != nil {
		if v := s.pre.Resident(src); v != nil {
			if ti, ok := v.C.Raw.Index(dst); ok {
				return int(v.C.Raw.Dist[ti])
			}
		}
	}
	return s.g.DistScratch(src, dst, sc.Search())
}
