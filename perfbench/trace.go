package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/metrics"
	"klocal/internal/nbhd"
	"klocal/internal/prep"
	"klocal/internal/route"
	"klocal/internal/serve"
	"klocal/internal/sim"
)

// topology is what the layer replay needs from a workload: the store it
// routes over, the same topology in memory, and how to serve it.
type topology struct {
	st bigraph.Store
	// csr is the workload's CSR when it routes over one; otherwise the
	// replay converts mem().
	csr *bigraph.CSR
	mem func() *graph.Graph
	// spec serves the topology in memory; k = 0 means the threshold.
	spec  serve.GraphSpec
	k     int
	alg   route.Algorithm
	pairs []engine.Request
	// http is the workload's own server, nil when its traffic bypasses
	// HTTP; prewarmServer tells the replay's server to prewarm.
	http          *httpTarget
	prewarmServer bool
	flapEdges     func() []graph.Edge
}

// Replay sizes: requests replayed, views built, flaps applied.
const replayPairs, replayViews, replayFlaps = 512, 256, 8

// replayBurst is how long the replay drives an engine or a loopback
// server in closed loop.
const replayBurst = 500 * time.Millisecond

// runTraced is the per-layer run: the workload's traffic as in the
// end-to-end run (for the layers only live traffic shows), then a replay
// that records spans around each module's public entry points over the
// workload's own topology and requests.
func runTraced(w workload, env *env) (map[string]float64, error) {
	t, _, err := deployTimed(w, env, 1)
	if err != nil {
		return nil, err
	}
	defer t.close()
	env.logf("# workload %s: %s\n", w.name, t.describe())
	var lags []time.Duration
	latency, err := traffic(w, t, env, float64(env.opts.seconds)/2, &lags)
	if err != nil {
		return nil, err
	}
	live := t.trafficLayers()
	vals, err := replay(t.layers(), env)
	if err != nil {
		return nil, err
	}
	// Live traffic wins over the replay for the layers it exercised.
	for k, v := range live {
		vals[k] = v
	}
	vals["bench.gen_lag_ms"] = quantileMS(lags, 0.99)
	vals["bench.msgs_per_s"] = latency["msgs_per_s"]
	for _, r := range []string{"r1", "r2"} {
		for _, q := range []string{"p50", "p90", "p99"} {
			vals["bench."+q+"_ms."+r] = latency[q+"_ms."+r]
		}
	}
	return vals, nil
}

// span accumulates the durations of one kind of span.
type span struct {
	n   int64
	sum time.Duration
}

func (s *span) add(d time.Duration) { s.n++; s.sum += d }
func (s *span) mean() float64       { return meanNS(s.sum, s.n) }

// timedNet times every HasEdge the simulator asks of the topology.
type timedNet struct {
	sim.Network
	has *span
}

func (t timedNet) HasEdge(u, v graph.Vertex) bool {
	start := time.Now()
	ok := t.Network.HasEdge(u, v)
	t.has.add(time.Since(start))
	return ok
}

func replay(top *topology, env *env) (map[string]float64, error) {
	k := top.k
	if k == 0 {
		k = top.alg.MinK(top.st.N())
	}
	sample := top.pairs[:min(len(top.pairs), replayPairs)]
	vals := map[string]float64{}
	snap, err := engine.NewSnapshotStore(top.st, k, top.alg, engine.SnapshotOptions{})
	if err != nil {
		return nil, err
	}
	views := warmAndCollect(snap, sample)
	viewLayers(top, k, views, vals)
	budgetLayers(top, k, snap, sample, env, vals)
	engineLayers(snap, sample, env, vals)
	if err := serveLayers(top, k, sample, env, vals); err != nil {
		return nil, err
	}
	churnLayers(top, k, views, vals)
	return vals, nil
}

// warmAndCollect routes sample once on snap, filling its cache, and
// returns up to replayViews distinct vertices the walks decided at.
func warmAndCollect(snap *engine.Snapshot, sample []engine.Request) []graph.Vertex {
	sc := sim.NewScratch()
	seen := map[graph.Vertex]bool{}
	var out []graph.Vertex
	for _, p := range sample {
		res := snap.RouteScratch(p.S, p.T, 0, sc)
		for _, u := range res.Route[:max(len(res.Route)-1, 0)] {
			if !seen[u] && len(out) < replayViews {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// viewLayers times extraction and preprocessing of the views.
func viewLayers(top *topology, k int, views []graph.Vertex, vals map[string]float64) {
	c := top.csr
	if c == nil {
		c = bigraph.FromGraph(top.mem())
	}
	var bext, next, build span
	bsc := bigraph.NewScratch()
	for _, u := range views {
		start := time.Now()
		if err := c.Extract(u, k, bsc); err != nil {
			panic(fmt.Sprintf("extract %d: %v", u, err)) // u came from a walk on this topology
		}
		bext.add(time.Since(start))
	}
	for _, u := range views {
		start := time.Now()
		_ = nbhd.ExtractStore(top.st, u, k)
		next.add(time.Since(start))
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	built := make([]*prep.View, len(views))
	for i, u := range views {
		start := time.Now()
		built[i] = prep.PreprocessStore(top.st, u, k, top.alg.Policy)
		build.add(time.Since(start))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	vals["prep.bytes_per_view"] = float64(int64(ms.HeapAlloc)-int64(before)) / float64(max(len(built), 1))
	runtime.KeepAlive(built)
	vals["bigraph.extract_ns"] = bext.mean()
	vals["nbhd.extract_ns"] = next.mean()
	vals["prep.build_ns"] = build.mean()
	vals["prep.build_self_ns"] = build.mean() - next.mean()
}

// budgetPasses is how many times the budget replays the sample.
const budgetPasses = 4

// budgetLayers splits one warm routed message into its layers. Every
// time is each request's fastest over budgetPasses passes. A span
// around every ~100ns decision or hop check would cost as much as the
// work it times, so each request is instead routed untraced twice, once
// through Snapshot.RouteScratch (engine.route_ns) and once through
// sim.RunStoreScratch with the bound route.Func (sim.walk_ns), and then
// its decisions, hop checks and cache lookups are replayed along the
// recorded walk with one span per message each. sim.walk_self_ns is
// what the walk spends outside them: loop detection and bookkeeping.
// Decisions run on a preprocessor the replay owns, so Preprocessor.At
// can be timed too. A final pass with a span around every call gives
// bench.trace_overhead.
func budgetLayers(top *topology, k int, snap *engine.Snapshot, sample []engine.Request, env *env, vals map[string]float64) {
	pre := prep.NewPreprocessorStore(top.st, k, top.alg.Policy)
	f := top.alg.BindCached(pre)
	opts := sim.Options{DetectLoops: !top.alg.Randomized, PredecessorAware: top.alg.PredecessorAware}
	g, inMem := top.st.(*graph.Graph)
	distG := g
	if !inMem {
		// The store path computes no distance; graph.dist_ns is timed on
		// the in-memory copy and left out of the walk.
		distG = top.mem()
	}
	sc, tsc, ss := sim.NewScratch(), sim.NewScratch(), graph.NewSearchScratch()
	shard := metrics.NewShard()
	for _, p := range sample { // warm the replay's own cache
		sim.RunStoreScratch(top.st, sim.Func(f), p.S, p.T, opts, tsc)
	}
	n := len(sample)
	routeT, walk, dist, decide, hasEdge := newFastest(n), newFastest(n), newFastest(n), newFastest(n), newFastest(n)
	hit, clone, observe, traced := newFastest(n), newFastest(n), newFastest(n), newFastest(n)
	walks := make([][]graph.Vertex, n)
	lat := make([]time.Duration, n)
	// Each pass runs the engine route, the walk, the replays and the
	// traced walk in separate sweeps over the sample, so the two
	// untraced routes see a pair's data equally warm.
	for pass := 0; pass < budgetPasses; pass++ {
		for i, p := range sample {
			start := time.Now()
			snap.RouteScratch(p.S, p.T, 0, sc)
			lat[i] = time.Since(start)
			routeT.add(i, lat[i])
		}
		for i, p := range sample {
			start := time.Now()
			res := sim.RunStoreScratch(top.st, sim.Func(f), p.S, p.T, opts, tsc)
			var d time.Duration
			if inMem {
				t0 := time.Now()
				res.Dist = g.DistScratch(p.S, p.T, ss)
				d = time.Since(t0)
			}
			walk.add(i, time.Since(start))
			if !inMem {
				t0 := time.Now()
				distG.DistScratch(p.S, p.T, ss)
				d = time.Since(t0)
			}
			dist.add(i, d)
			if err := checkWalk(top.st, p.S, p.T, res.Route, res.Outcome == sim.Delivered, res.Dist, serve.DilationBound(algName)); err != nil {
				env.tally.fail("replay %s %v", res.Outcome, err)
				continue
			}
			env.tally.ok()
			if walks[i] == nil {
				walks[i] = append([]graph.Vertex(nil), res.Route...)
			}
			start = time.Now()
			kept := res.Clone()
			clone.add(i, time.Since(start))
			start = time.Now()
			observeAsEngine(shard, kept, lat[i])
			observe.add(i, time.Since(start))
		}
		for i, p := range sample {
			walked := walks[i]
			hops := max(len(walked)-1, 0)
			start := time.Now()
			prev := graph.NoVertex
			for j := 0; j < hops; j++ {
				f(p.S, p.T, walked[j], prev)
				prev = walked[j]
			}
			decide.add(i, time.Since(start))
			start = time.Now()
			for j := 0; j < hops; j++ {
				top.st.HasEdge(walked[j], walked[j+1])
			}
			hasEdge.add(i, time.Since(start))
			start = time.Now()
			for j := 0; j < hops; j++ {
				pre.At(walked[j])
			}
			hit.add(i, time.Since(start))
		}
		for i, p := range sample {
			start := time.Now()
			tracedWalk(top.st, f, p, opts, tsc)
			if inMem {
				g.DistScratch(p.S, p.T, ss)
			}
			traced.add(i, time.Since(start))
		}
	}
	decisions := 0
	for _, w := range walks {
		decisions += max(len(w)-1, 0)
	}
	perCall := func(f fastest) float64 { return float64(f.sum()) / float64(max(decisions, 1)) }
	perMsg := func(f fastest) float64 { return float64(f.sum()) / float64(max(n, 1)) }
	walkDist := 0.0
	if inMem {
		walkDist = perMsg(dist)
	}
	vals["engine.route_ns"] = perMsg(routeT)
	vals["sim.walk_ns"] = perMsg(walk)
	vals["route.decide_ns"] = perCall(decide)
	vals["prep.hit_ns"] = perCall(hit)
	vals["route.decide_self_ns"] = perCall(decide) - perCall(hit)
	vals["route.decisions_per_msg"] = float64(decisions) / float64(max(n, 1))
	vals["graph.has_edge_ns"] = perCall(hasEdge)
	vals["graph.dist_ns"] = perMsg(dist)
	walkSelf := perMsg(walk) - perMsg(decide) - perMsg(hasEdge) - walkDist
	vals["sim.walk_self_ns"] = walkSelf
	vals["sim.clone_ns"] = perMsg(clone)
	vals["metrics.observe_ns"] = perMsg(observe)
	vals["bench.trace_overhead"] = perMsg(traced)/perMsg(walk) - 1
	// The self times along the blocking steps of one message, over the
	// engine's own untraced route time: 1 when the replayed layers
	// account for Snapshot.RouteScratch.
	selfSum := perMsg(decide) - perMsg(hit) + perMsg(hit) + perMsg(hasEdge) + walkDist + walkSelf
	vals["budget.coverage"] = selfSum / perMsg(routeT)
}

// fastest keeps each request's fastest time over the budget's passes,
// so a host stall during one pass inflates no layer.
type fastest []time.Duration

func newFastest(n int) fastest { return make(fastest, n) }

func (f fastest) add(i int, d time.Duration) {
	if f[i] == 0 || d < f[i] {
		f[i] = d
	}
}

func (f fastest) sum() time.Duration {
	var s time.Duration
	for _, d := range f {
		s += d
	}
	return s
}

// tracedWalk routes p with a span around every decision and hop check:
// the per-call instrumentation whose cost bench.trace_overhead reports.
func tracedWalk(st bigraph.Store, f route.Func, p engine.Request, opts sim.Options, sc *sim.Scratch) {
	var decide, has span
	tf := func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		start := time.Now()
		next, err := f(s, t, u, v)
		decide.add(time.Since(start))
		return next, err
	}
	sim.RunStoreScratch(timedNet{Network: st, has: &has}, sim.Func(tf), p.S, p.T, opts, sc)
}

// observeAsEngine records the metric set an engine worker records for
// each request.
func observeAsEngine(sh *metrics.Shard, res *sim.Result, lat time.Duration) {
	sh.Count("requests", 1)
	sh.Observe("latency_ns", lat.Nanoseconds())
	if res.Outcome == sim.Delivered {
		sh.Count("delivered", 1)
		sh.Observe("hops", int64(res.Len()))
		if res.Dist > 0 {
			sh.Observe("stretch_milli", int64(res.Dilation()*1000+0.5))
		}
	}
}

// engineLayers drives an engine over the snapshot with nproc closed-loop
// Do callers: the queue wait, how busy the workers were, and the heap
// allocations per message.
func engineLayers(snap *engine.Snapshot, sample []engine.Request, env *env, vals map[string]float64) {
	eng := engine.New(snap, engine.Config{Workers: env.conns})
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var mu sync.Mutex
	var wait, busy time.Duration
	var n int64
	start := time.Now()
	stop := start.Add(replayBurst)
	var wg sync.WaitGroup
	for c := 0; c < env.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var w, b time.Duration
			var cnt int64
			for i := c; time.Now().Before(stop); i += env.conns {
				p := sample[i%len(sample)]
				t0 := time.Now()
				resp, err := eng.Do(p, 0)
				if err != nil {
					env.tally.fail("replay engine Do: %v", err)
					continue
				}
				w += time.Since(t0) - resp.Latency
				b += resp.Latency
				cnt++
				if resp.Result.Outcome != sim.Delivered {
					env.tally.fail("replay engine (%d→%d) %s", p.S, p.T, resp.Result.Outcome)
				} else {
					env.tally.ok()
				}
			}
			mu.Lock()
			wait, busy, n = wait+w, busy+b, n+cnt
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	eng.Close()
	vals["engine.queue_wait_ns"] = meanNS(wait, n)
	vals["engine.busy_share"] = float64(busy) / (float64(env.conns) * float64(elapsed))
	vals["engine.allocs_per_msg"] = float64(ms.Mallocs-mallocs) / float64(max(n, 1))
}

// serveLayers times the handler on an in-memory recorder, a loopback
// burst, and edge flaps through Server.ApplyDeltas and PATCH /graph. It
// uses the workload's own server, or one over the same topology.
func serveLayers(top *topology, k int, sample []engine.Request, env *env, vals map[string]float64) error {
	h := top.http
	if h == nil {
		var err error
		h, err = newHTTPTarget(env, top.spec, k, top.mem(), top.pairs, top.prewarmServer)
		if err != nil {
			return err
		}
		defer h.close()
		for i := range sample { // views are built lazily without prewarm
			h.do(0, i)
		}
		stop := time.Now().Add(replayBurst)
		var wg sync.WaitGroup
		for c := 0; c < env.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(stop); i += env.conns {
					h.do(c, i%len(sample))
				}
			}(c)
		}
		wg.Wait()
		for key, v := range h.trafficLayers() {
			if key == "serve.overhead_ns" || key == "serve.reply_bytes" || key == "serve.rejected" {
				vals[key] = v
			}
		}
	}
	handler := h.srv.Handler()
	var hs span
	for _, p := range sample {
		body, _ := json.Marshal(serve.RouteRequest{S: p.S, T: p.T})
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/route", bytes.NewReader(body))
		start := time.Now()
		handler.ServeHTTP(rec, req)
		wall := time.Since(start)
		var rr serve.RouteReply
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || !rr.Delivered {
			env.tally.fail("replay handler (%d→%d): status %d %v", p.S, p.T, rec.Code, err)
			continue
		}
		env.tally.ok()
		hs.add(wall - time.Duration(rr.LatencyNS))
	}
	vals["serve.handler_ns"] = hs.mean()

	edges := top.flapEdges()
	var apply span
	var lat []time.Duration
	for i := 0; i < replayFlaps && i < len(edges); i++ {
		e := edges[i]
		for _, op := range []churn.Op{churn.RemoveEdge, churn.AddEdge} {
			start := time.Now()
			if _, _, err := h.srv.ApplyDeltas([]churn.Delta{{Op: op, U: e.U, V: e.V}}); err != nil {
				return fmt.Errorf("ApplyDeltas %v %v: %w", op, e, err)
			}
			apply.add(time.Since(start))
		}
		for _, op := range []string{"remove-edge", "add-edge"} {
			body, _ := json.Marshal(serve.DeltaRequest{Deltas: []serve.DeltaSpec{{Op: op, U: e.U, V: e.V}}})
			start := time.Now()
			var dr serve.DeltaReply
			if err := h.call("PATCH", "/graph", body, &dr); err != nil {
				return err
			}
			lat = append(lat, time.Since(start))
		}
	}
	vals["serve.patch_ns"] = apply.mean()
	vals["serve.patch_http_p50_ms"] = quantileMS(lat, 0.5)
	vals["serve.patch_http_p90_ms"] = quantileMS(lat, 0.9)
	return nil
}

// churnLayers applies edge flaps to the in-memory topology and derives
// a preprocessor holding the replayed views across each.
func churnLayers(top *topology, k int, views []graph.Vertex, vals map[string]float64) {
	g := top.mem()
	pre := prep.NewPreprocessorStore(g, k, top.alg.Policy)
	for _, u := range views {
		pre.At(u)
	}
	var apply, derive span
	dirtySum := 0
	edges := top.flapEdges()
	for i := 0; i < replayFlaps && i < len(edges); i++ {
		e := edges[i]
		cur := g
		for _, op := range []churn.Op{churn.RemoveEdge, churn.AddEdge} {
			start := time.Now()
			post, dirty, err := churn.Apply(cur, churn.Delta{Op: op, U: e.U, V: e.V}, k)
			apply.add(time.Since(start))
			if err != nil {
				panic(fmt.Sprintf("churn.Apply %v %v: %v", op, e, err)) // flap edges exist in g
			}
			dirtySum += len(dirty)
			start = time.Now()
			pre.Derive(post, dirty)
			derive.add(time.Since(start))
			cur = post
		}
	}
	vals["churn.apply_ns"] = apply.mean()
	vals["churn.dirty_views"] = float64(dirtySum) / float64(max(apply.n, 1))
	vals["prep.derive_ns"] = derive.mean()
}
