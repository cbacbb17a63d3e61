package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/engine"
	"klocal/internal/graph"
	"klocal/internal/serve"
)

// httpTarget drives a serve.Server (klocald's handler set) over real
// loopback TCP with at most nproc keep-alive connections.
type httpTarget struct {
	env    *env
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	base   edgeSet
	bound  float64
	pairs  []engine.Request
	bodies [][]byte
	top    *topology

	// epochs maps every topology epoch to the edge a flap removed in it
	// (the zero Edge when the topology is intact). Reads are checked
	// against the epoch their reply names.
	epochMu sync.RWMutex
	epochs  map[int64]graph.Edge
	newest  int64
	// lastEpoch is the newest epoch each sender has seen: replies to one
	// sender's sequential requests must never go back in time.
	lastEpoch []int64

	// Reply accounting: client wall time and server latency_ns summed
	// over 200 replies, reply bytes, and 429 rejections.
	replies, clientNS, serverNS, replyBytes, rejected atomic.Int64

	flap *flapper
}

// newHTTPTarget deploys spec at locality k (0 = threshold) behind a
// loopback listener.
func newHTTPTarget(e *env, spec serve.GraphSpec, k int, g *graph.Graph, pairs []engine.Request, prewarm bool) (*httpTarget, error) {
	srv, err := serve.New(serve.Config{
		Graph: spec, Algorithms: []string{algName}, K: k, Workers: e.conns,
		AdmissionBudget: admissionBudget, Prewarm: prewarm,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	tr := &http.Transport{
		MaxIdleConns: e.conns, MaxIdleConnsPerHost: e.conns, MaxConnsPerHost: e.conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	h := &httpTarget{
		env: e, srv: srv, served: make(chan error, 1),
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		base:   bigraph.FromGraph(g), bound: serve.DilationBound(algName), pairs: pairs,
		epochs: make(map[int64]graph.Edge), lastEpoch: make([]int64, e.conns),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	var gr serve.GraphReply
	if err := h.call(http.MethodGet, "/graph", nil, &gr); err != nil {
		h.close()
		return nil, err
	}
	h.epochs[gr.Epoch] = graph.Edge{}
	h.newest = gr.Epoch
	for i := range h.lastEpoch {
		h.lastEpoch[i] = gr.Epoch
	}
	h.bodies = make([][]byte, len(pairs))
	for i, p := range pairs {
		h.bodies[i], _ = json.Marshal(serve.RouteRequest{S: p.S, T: p.T})
	}
	h.top = &topology{
		st: g, mem: func() *graph.Graph { return g }, spec: spec, k: k, alg: e.alg(), pairs: pairs,
		http: h,
	}
	return h, nil
}

// call sends one request and decodes a 200 reply into out.
func (h *httpTarget) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, h.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func (h *httpTarget) do(c, i int) {
	i %= len(h.pairs)
	start := time.Now()
	resp, err := h.client.Post(h.url+"/route", "application/json", bytes.NewReader(h.bodies[i]))
	if err != nil {
		h.env.tally.fail("POST /route: %v", err)
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	switch {
	case err != nil:
		h.env.tally.fail("POST /route body: %v", err)
		return
	case resp.StatusCode == http.StatusTooManyRequests:
		h.rejected.Add(1)
		h.env.tally.fail("POST /route rejected: %s", resp.Status)
		return
	case resp.StatusCode != http.StatusOK:
		h.env.tally.fail("POST /route: %s: %s", resp.Status, bytes.TrimSpace(b))
		return
	}
	var rr serve.RouteReply
	if err := json.Unmarshal(b, &rr); err != nil {
		h.env.tally.fail("route reply: %v", err)
		return
	}
	h.replies.Add(1)
	h.clientNS.Add(int64(wall))
	h.serverNS.Add(rr.LatencyNS)
	h.replyBytes.Add(int64(len(b)))
	if err := h.checkReply(c, i, &rr); err != nil {
		h.env.tally.fail("epoch %d: %v", rr.Epoch, err)
		return
	}
	h.env.tally.ok()
}

func (h *httpTarget) checkReply(c, i int, rr *serve.RouteReply) error {
	p := h.pairs[i]
	if rr.S != p.S || rr.T != p.T {
		return fmt.Errorf("reply for (%d→%d) answers (%d→%d)", p.S, p.T, rr.S, rr.T)
	}
	if rr.Epoch < h.lastEpoch[c] {
		return fmt.Errorf("epoch went back from %d", h.lastEpoch[c])
	}
	h.lastEpoch[c] = rr.Epoch
	h.epochMu.RLock()
	gone, known := h.epochs[rr.Epoch]
	h.epochMu.RUnlock()
	if !known {
		return fmt.Errorf("reply names an epoch no PATCH produced")
	}
	top := h.base
	if gone != (graph.Edge{}) {
		top = withoutEdge{base: h.base, gone: gone}
	}
	return checkWalk(top, rr.S, rr.T, rr.Route, rr.Delivered, rr.Dist, h.bound)
}

func (h *httpTarget) doBatch(c, lo, n int) {
	for j := lo; j < lo+n; j++ {
		h.do(c, j)
	}
}

func (h *httpTarget) reset() error { return nil }

func (h *httpTarget) describe() string {
	s := fmt.Sprintf("serve.Server over real loopback TCP at %s, %d keep-alive connections, %s, %d pairs",
		h.url, h.env.conns, h.top.spec, len(h.pairs))
	if h.flap != nil {
		s += fmt.Sprintf(", PATCH /graph edge flaps beside the reads, one delta every %v", flapEvery)
	}
	return s
}

func (h *httpTarget) layers() *topology { return h.top }

func (h *httpTarget) trafficLayers() map[string]float64 {
	out := map[string]float64{"serve.rejected": float64(h.rejected.Load())}
	if n := h.replies.Load(); n > 0 {
		out["serve.overhead_ns"] = meanNS(time.Duration(h.clientNS.Load()-h.serverNS.Load()), n)
		out["serve.reply_bytes"] = float64(h.replyBytes.Load()) / float64(n)
	}
	var mr serve.MetricsReply
	if err := h.call(http.MethodGet, "/metrics?format=json", nil, &mr); err == nil {
		if rep := mr.Algorithms[algName]; rep != nil {
			out["prep.hit_rate"] = rep.Gauge("cache_hit_rate")
			out["prep.views_built"] = rep.Gauge("cache_size")
		}
	}
	if h.flap != nil {
		h.flap.stopAndWait()
		for k, v := range h.flap.layers() {
			out[k] = v
		}
	}
	return out
}

func (h *httpTarget) close() error {
	if h.flap != nil {
		h.flap.stopAndWait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.client.CloseIdleConnections()
	h.srv.Drain()
	return err
}

// flapEvery is the gap between PATCH /graph requests: each flap removes
// an edge and, one gap later, adds it back.
const flapEvery = 200 * time.Millisecond

// flapper sends seeded edge flaps through PATCH /graph until stopped.
type flapper struct {
	h     *httpTarget
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	lat   []time.Duration
	dirty []int
}

func (h *httpTarget) startFlaps(edges []graph.Edge, rng *rand.Rand) {
	f := &flapper{h: h, stop: make(chan struct{}), done: make(chan struct{})}
	h.flap = f
	go f.run(edges, rng)
}

func (f *flapper) run(edges []graph.Edge, rng *rand.Rand) {
	defer close(f.done)
	tick := time.NewTicker(flapEvery)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		e := edges[rng.Intn(len(edges))]
		// A flap always completes, so the topology is intact whenever
		// the flapper stops.
		if !f.patch("remove-edge", e) {
			return
		}
		<-tick.C
		if !f.patch("add-edge", e) {
			return
		}
	}
}

// patch sends one delta and checks that it produced the next epoch.
func (f *flapper) patch(op string, e graph.Edge) bool {
	h := f.h
	h.epochMu.Lock()
	h.newest++
	newest := h.newest - 1
	gone := graph.Edge{}
	if op == "remove-edge" {
		gone = e
	}
	// Record the epoch before the server can publish it, so a read that
	// races ahead of this reply is still checked against it.
	h.epochs[newest+1] = gone
	h.epochMu.Unlock()
	body, _ := json.Marshal(serve.DeltaRequest{Deltas: []serve.DeltaSpec{{Op: op, U: e.U, V: e.V}}})
	start := time.Now()
	var dr serve.DeltaReply
	if err := h.call(http.MethodPatch, "/graph", body, &dr); err != nil {
		h.env.tally.fail("PATCH /graph %s %v: %v", op, e, err)
		return false
	}
	f.lat = append(f.lat, time.Since(start))
	f.dirty = append(f.dirty, dr.Dirty)
	if dr.Epoch != newest+1 {
		h.env.tally.fail("PATCH /graph %s %v: epoch %d, want %d (epochs must advance by one)", op, e, dr.Epoch, newest+1)
		return false
	}
	return true
}

func (f *flapper) stopAndWait() {
	f.once.Do(func() { close(f.stop) })
	<-f.done
}

// layers reports the PATCH latencies and dirty-set sizes the flaps saw.
func (f *flapper) layers() map[string]float64 {
	out := map[string]float64{}
	if len(f.lat) == 0 {
		return out
	}
	lat := append([]time.Duration(nil), f.lat...)
	out["serve.patch_http_p50_ms"] = quantileMS(lat, 0.5)
	out["serve.patch_http_p90_ms"] = quantileMS(lat, 0.9)
	sum := 0
	for _, d := range f.dirty {
		sum += d
	}
	out["churn.dirty_views"] = float64(sum) / float64(len(f.dirty))
	return out
}
