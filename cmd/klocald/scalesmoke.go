package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/serve"
)

// runScaleSmoke is the dependency-free `make scale-smoke` body: the
// million-node pipeline end to end, scaled to CI time. It streams a
// 10^5-node grid into a binary CSR file, boots the daemon store-backed
// on it (mmap when the platform has it), routes 1000 Zipf-skewed pairs
// through /batch, and asserts the run is healthy: every request routed,
// a sizeable fraction delivered, counters reconciled.
//
// k sits far below Algorithm 2's Theorem 7 threshold (T(10^5) ≈ 33000 —
// at this scale the threshold view IS the graph), so delivery is
// best-effort: pairs whose destination enters the k-view deliver, the
// rest fail fast. That is the regime the scale benchmark measures; the
// smoke pins the plumbing, not the paper's guarantee.
func runScaleSmoke(drain time.Duration) error {
	const (
		rows, cols = 317, 317 // 100489 vertices
		k          = 8
		pairs      = 1000
		batch      = 100
	)
	start := time.Now()
	c, err := gen.GridCSR(rows, cols)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "klocal-scale-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "grid.csr")
	if err := c.WriteFile(path); err != nil {
		return err
	}
	n := c.N()
	fmt.Printf("scale-smoke: wrote %s: n=%d m=%d (%d bytes) in %v\n",
		path, n, c.M(), c.Bytes(), time.Since(start).Round(time.Millisecond))

	s, err := serve.New(serve.Config{
		Graph:      serve.GraphSpec{Kind: "file", Path: path},
		Algorithms: []string{"alg2"},
		K:          k,
		// Pairs whose destination never enters the k-view wander until the
		// budget; 2k keeps them cheap while leaving visible destinations
		// (shortest path ≤ k hops) untouched.
		MaxSteps: 2 * k,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer(s.Handler())
	//klocal:allow smoke-run server; the process exits when the run completes
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	var gr serve.GraphReply
	if err := postJSON(base, "GET", "/graph", nil, &gr); err != nil {
		return err
	}
	if gr.N != n {
		return fmt.Errorf("daemon reports n=%d, want %d", gr.N, n)
	}

	// Zipf-skewed endpoints: most mass near vertex 0 (the grid corner),
	// so many pairs are within the k-view and deliver, while the tail
	// exercises the fail-fast path.
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.3, 8, uint64(n-1))
	routed, delivered := 0, 0
	routeStart := time.Now()
	for routed < pairs {
		req := serve.BatchRequest{}
		for i := 0; i < batch; i++ {
			req.Pairs = append(req.Pairs,
				[2]graph.Vertex{graph.Vertex(z.Uint64()), graph.Vertex(z.Uint64())})
		}
		var br serve.BatchReply
		if err := postJSON(base, "POST", "/batch", req, &br); err != nil {
			return err
		}
		if len(br.Results) != batch {
			return fmt.Errorf("batch returned %d results, want %d", len(br.Results), batch)
		}
		for _, rr := range br.Results {
			routed++
			if rr.Delivered {
				delivered++
			}
		}
	}
	rate := float64(delivered) / float64(routed)
	elapsed := time.Since(routeStart)
	fmt.Printf("scale-smoke: routed %d Zipf pairs in %v (%.0f msgs/s), %.0f%% delivered at k=%d\n",
		routed, elapsed.Round(time.Millisecond), float64(routed)/elapsed.Seconds(), 100*rate, k)
	if delivered == 0 {
		return fmt.Errorf("no pair delivered — even Zipf-adjacent endpoints failed")
	}

	var mr serve.MetricsReply
	if err := postJSON(base, "GET", "/metrics?format=json", nil, &mr); err != nil {
		return err
	}
	rep, ok := mr.Algorithms["alg2"]
	if !ok {
		return fmt.Errorf("metrics missing alg2")
	}
	if got := rep.Counter("requests"); got != int64(routed) {
		return fmt.Errorf("metrics count %d requests, want %d", got, routed)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	s.Drain()
	return nil
}

// postJSON is the minimal client the smoke needs: marshal, round-trip,
// insist on 200, unmarshal.
func postJSON(base, method, path string, payload, into any) error {
	var body io.Reader
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, raw)
	}
	return json.Unmarshal(raw, into)
}
