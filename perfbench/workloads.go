package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/engine"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/serve"
	"klocal/internal/sim"
)

// workload is one seeded traffic mix and the deployment it runs on.
type workload struct {
	name string
	// r1 and r2 are the open-loop rates in requests per second, fixed
	// at about 15% and 45% of the closed-loop ceiling measured on a
	// 2-core Intel Xeon VM, or lower where the higher rate tipped into a
	// growing backlog there, so both commits of an A/B see the same load.
	r1, r2 float64
	// batch is the closed-loop submission size.
	batch int
	// rounds is how many times the traced run cycles through its
	// phases; its traffic metrics are medians over rounds.
	rounds int
	// pass, when set, makes each closed-loop round route exactly that
	// many requests, so a cold pass does the same work, and leaves the
	// same views behind, however fast the host runs.
	pass int
	// openBatch, when set, makes each open-loop request a batch of that
	// many pairs (r1 and r2 then count batches): a single engine-walk
	// route takes ~20µs, less than waking an idle vCPU on a VM, so its
	// latency alone would measure the host.
	openBatch int
	deploy    func(e *env) (target, error)
}

var workloads = []workload{
	{name: "engine-walk", r1: 130, r2: 400, batch: 64, openBatch: 64, rounds: 8, deploy: deployEngineWalk},
	{name: "http-route", r1: 1500, r2: 4500, batch: 1, rounds: 8, deploy: deployHTTPRoute},
	{name: "cold-csr", r1: 100, r2: 200, batch: 16, rounds: 10, pass: 1024, deploy: deployColdCSR},
	{name: "http-churn", r1: 500, r2: 1500, batch: 1, rounds: 6, deploy: deployHTTPChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// algName is the Table 2 algorithm every workload serves.
const algName = "alg2"

// admissionBudget is klocald's default queue-wait budget before a 429.
const admissionBudget = 100 * time.Millisecond

// engineTarget drives an in-process engine.Engine: engine-walk, and
// cold-csr with a fresh snapshot per phase.
type engineTarget struct {
	env   *env
	check edgeSet
	bound float64
	snap  *engine.Snapshot
	eng   *engine.Engine
	pairs []engine.Request
	bufs  [][]engine.Request
	top   *topology
	// fresh, when set, builds a new snapshot for every phase; retired
	// sums the cache activity of the snapshots it replaced.
	fresh   func() (*engine.Snapshot, error)
	retired prep.CacheStats
	// Do calls: summed wall time, summed worker latency, count.
	doWall, doLat atomic.Int64
	doN           atomic.Int64
}

func newEngineTarget(e *env, check edgeSet, bound float64, pairs []engine.Request) *engineTarget {
	return &engineTarget{env: e, check: check, bound: bound, pairs: pairs, bufs: make([][]engine.Request, e.conns)}
}

// serve starts an engine over snap, retiring the previous one.
func (t *engineTarget) serve(snap *engine.Snapshot) {
	if t.eng != nil {
		t.eng.Close()
		t.retired = addStats(t.retired, t.snap.CacheStats())
	}
	t.snap, t.eng = snap, engine.New(snap, engine.Config{Workers: t.env.conns})
}

func addStats(a, b prep.CacheStats) prep.CacheStats {
	return prep.CacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses,
		Evictions: a.Evictions + b.Evictions, Size: b.Size}
}

func (t *engineTarget) do(_, i int) {
	start := time.Now()
	resp, err := t.eng.Do(t.pairs[i%len(t.pairs)], 0)
	wall := time.Since(start)
	if err != nil {
		t.env.tally.fail("engine Do: %v", err)
		return
	}
	t.doWall.Add(int64(wall))
	t.doLat.Add(int64(resp.Latency))
	t.doN.Add(1)
	t.checkResponse(resp)
}

func (t *engineTarget) doBatch(c, lo, n int) {
	buf := t.bufs[c][:0]
	for j := lo; j < lo+n; j++ {
		buf = append(buf, t.pairs[j%len(t.pairs)])
	}
	t.bufs[c] = buf
	out, err := t.eng.DoBatch(buf, 0)
	if err != nil {
		for range buf {
			t.env.tally.fail("engine DoBatch: %v", err)
		}
		return
	}
	for _, r := range out {
		t.checkResponse(r)
	}
}

func (t *engineTarget) checkResponse(r engine.Response) {
	res := r.Result
	if err := checkWalk(t.check, r.S, r.T, res.Route, res.Outcome == sim.Delivered, res.Dist, t.bound); err != nil {
		t.env.tally.fail("%s %v", res.Outcome, err)
		return
	}
	t.env.tally.ok()
}

func (t *engineTarget) reset() error {
	if t.fresh == nil {
		return nil
	}
	snap, err := t.fresh()
	if err != nil {
		return err
	}
	t.serve(snap)
	return nil
}

func (t *engineTarget) describe() string {
	return fmt.Sprintf("in-process engine, %s k=%d n=%d, %d pairs, prewarmed", t.snap.Algorithm().Name,
		t.snap.K(), t.snap.Store().N(), len(t.pairs))
}

func (t *engineTarget) layers() *topology { return t.top }

func (t *engineTarget) trafficLayers() map[string]float64 {
	cs := addStats(t.retired, t.snap.CacheStats())
	out := map[string]float64{"prep.hit_rate": cs.HitRate(), "prep.views_built": float64(cs.Misses)}
	if n := t.doN.Load(); n > 0 {
		out["engine.queue_wait_ns"] = meanNS(time.Duration(t.doWall.Load()-t.doLat.Load()), n)
	}
	return out
}

func (t *engineTarget) close() error {
	if t.eng != nil {
		t.eng.Close()
	}
	return nil
}

// deployEngineWalk prewarms Algorithm 2 at its threshold k=100 on a
// 300-cycle: walks average ~82 hops with real Case 2/3 decisions.
func deployEngineWalk(e *env) (target, error) {
	g := gen.Cycle(300)
	snap, err := engine.NewSnapshotOpts(g, 0, e.alg(), engine.SnapshotOptions{Prewarm: -1})
	if err != nil {
		return nil, err
	}
	pairs := engine.Take(engine.Zipf(e.rng(1), g, engine.ZipfSkew), 20000)
	t := newEngineTarget(e, bigraph.FromGraph(g), serve.DilationBound(algName), pairs)
	t.serve(snap)
	t.top = &topology{
		st: g, mem: func() *graph.Graph { return g }, spec: serve.GraphSpec{Kind: "cycle", Size: 300},
		k: snap.K(), alg: e.alg(), pairs: pairs, prewarmServer: true,
		flapEdges: func() []graph.Edge { return sampleEdges(g, e.rng(2), nil) },
	}
	return t, nil
}

// coldTarget serves the cold-csr workload: an mmap'd CSR grid behind a
// fresh store-backed snapshot for every phase, so view lookups miss.
// Store-backed results carry no distance, so walks are checked for
// delivery and hop legality only.
type coldTarget struct {
	*engineTarget
	csr  *bigraph.CSR
	path string
	mem  *graph.Graph
}

const coldSide, coldK, coldPairs = 317, 8, 4096

func deployColdCSR(e *env) (target, error) {
	c, err := gen.GridCSR(coldSide, coldSide)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, fmt.Sprintf("cold-%d.csr", os.Getpid()))
	if err := c.WriteFile(path); err != nil {
		return nil, err
	}
	csr, err := bigraph.Open(path)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	t := &coldTarget{csr: csr, path: path,
		engineTarget: newEngineTarget(e, csr, 0, localPairs(csr, e.rng(1), coldPairs, coldK))}
	t.fresh = func() (*engine.Snapshot, error) {
		return engine.NewSnapshotStore(csr, coldK, e.alg(), engine.SnapshotOptions{})
	}
	if err := t.reset(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// localPairs draws n (s, t) pairs where t is the end of a seeded k-step
// walk from s, so t ∈ G_k(s) and delivery is guaranteed at locality k.
func localPairs(st bigraph.Store, rng *rand.Rand, n, k int) []engine.Request {
	vs := engine.StoreVertices(st)
	out := make([]engine.Request, 0, n)
	var nb []graph.Vertex
	for len(out) < n {
		s := vs[rng.Intn(len(vs))]
		t := s
		for j := 0; j < k; j++ {
			nb = nb[:0]
			st.EachAdj(t, func(w graph.Vertex) bool { nb = append(nb, w); return true })
			t = nb[rng.Intn(len(nb))]
		}
		if t != s {
			out = append(out, engine.Request{S: s, T: t})
		}
	}
	return out
}

func (t *coldTarget) describe() string {
	return fmt.Sprintf("mmap'd CSR grid %dx%d (n=%d, %d bytes) store-backed at k=%d, fresh snapshot per phase, %d local pairs",
		coldSide, coldSide, t.csr.N(), t.csr.Bytes(), coldK, len(t.pairs))
}

// layers builds the in-memory grid only when the traced run needs it.
func (t *coldTarget) layers() *topology {
	mem := func() *graph.Graph {
		if t.mem == nil {
			t.mem = gen.Grid(coldSide, coldSide)
		}
		return t.mem
	}
	return &topology{
		st: t.csr, csr: t.csr, mem: mem,
		spec: serve.GraphSpec{Kind: "grid", Size: coldSide * coldSide},
		k:    coldK, alg: t.env.alg(), pairs: t.pairs,
		flapEdges: func() []graph.Edge { return sampleEdges(mem(), t.env.rng(2), interior) },
	}
}

func (t *coldTarget) close() error {
	t.engineTarget.close()
	return errors.Join(t.csr.Close(), os.Remove(t.path))
}

// interior keeps edges whose endpoints both have degree 4: never a
// bridge in a grid.
func interior(g *graph.Graph, e graph.Edge) bool { return g.Deg(e.U) == 4 && g.Deg(e.V) == 4 }

// flapCount is how many distinct edges flap streams draw from.
const flapCount = 64

// sampleEdges draws up to flapCount distinct edges of g that keep
// passes (all edges when keep is nil), in seeded order.
func sampleEdges(g *graph.Graph, rng *rand.Rand, keep func(*graph.Graph, graph.Edge) bool) []graph.Edge {
	all := g.Edges()
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var out []graph.Edge
	for _, e := range all {
		if len(out) == flapCount {
			break
		}
		if keep == nil || keep(g, e) {
			out = append(out, e)
		}
	}
	return out
}

// nonBridge keeps edges whose removal leaves g connected.
func nonBridge(g *graph.Graph, e graph.Edge) bool { return g.WithoutEdge(e.U, e.V).Connected() }

// deployHTTPRoute serves Algorithm 2 at its threshold on a sparse random
// graph (n=120, p=0.03) from klocald's handler over loopback TCP; walks
// are ~3 hops, so HTTP and queueing dominate.
func deployHTTPRoute(e *env) (target, error) {
	spec := serve.GraphSpec{Kind: "random", Size: 120, P: 0.03, Seed: 1}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	pairs := engine.Take(engine.Uniform(e.rng(1), g), 20000)
	h, err := newHTTPTarget(e, spec, 0, g, pairs, true)
	if err != nil {
		return nil, err
	}
	h.top.flapEdges = func() []graph.Edge { return sampleEdges(g, e.rng(2), nonBridge) }
	return h, nil
}

// deployHTTPChurn serves a prewarmed 100×100 grid at k=6 over loopback
// and flaps seeded interior edges through PATCH /graph beside the reads.
func deployHTTPChurn(e *env) (target, error) {
	const k = 6
	spec := serve.GraphSpec{Kind: "grid", Size: 10000}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// Reads stay within dist k−2, so one missing edge (a detour of at
	// most two hops in a grid) leaves t inside every view on the walk.
	pairs := nearPairs(g, e.rng(1), 4096, k-2)
	h, err := newHTTPTarget(e, spec, k, g, pairs, true)
	if err != nil {
		return nil, err
	}
	edges := sampleEdges(g, e.rng(2), interior)
	h.top.flapEdges = func() []graph.Edge { return edges }
	h.startFlaps(edges, e.rng(3))
	return h, nil
}

// nearPairs draws n pairs with 1 ≤ dist(s, t) ≤ r.
func nearPairs(g *graph.Graph, rng *rand.Rand, n, r int) []engine.Request {
	vs := g.Vertices()
	out := make([]engine.Request, 0, n)
	for len(out) < n {
		s := vs[rng.Intn(len(vs))]
		ball := g.BFSBounded(s, r)
		near := make([]graph.Vertex, 0, len(ball))
		for v := range ball {
			if v != s {
				near = append(near, v)
			}
		}
		sort.Slice(near, func(i, j int) bool { return near[i] < near[j] })
		out = append(out, engine.Request{S: s, T: near[rng.Intn(len(near))]})
	}
	return out
}

// algorithm returns the algorithm runs bind (Algorithm 2 unless a test
// substitutes another).
func (e *env) alg() route.Algorithm {
	if e.opts.alg.Name != "" {
		return e.opts.alg
	}
	return route.Algorithm2()
}
