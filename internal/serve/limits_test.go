package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
)

// TestGraphSpecSizeLimits: specs whose vertex or implied edge count is
// past the limits fail with ErrGraphTooLarge before anything is built,
// specs too small for their generator fail with an error instead of a
// generator panic, and specs at the limits' scale of the benchmark
// workloads still build.
func TestGraphSpecSizeLimits(t *testing.T) {
	tooLarge := []GraphSpec{
		{Kind: "complete", Size: 1000000},
		{Kind: "complete", Size: 3000}, // 4.5M edges from 3k vertices
		{Kind: "random", Size: 20000, P: 0.5},
		{Kind: "cycle", Size: MaxGraphVertices + 1},
		{Kind: "grid", Size: 1 << 40},
		{Kind: "edges", Edges: make([][2]int64, MaxGraphEdges+1)},
	}
	for _, sp := range tooLarge {
		start := time.Now()
		_, err := sp.Build()
		if !errors.Is(err, ErrGraphTooLarge) {
			t.Errorf("%s: err %v, want ErrGraphTooLarge", sp, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejection took %v; the limit must apply before building", sp, d)
		}
	}
	for _, sp := range []GraphSpec{
		{Kind: "cycle", Size: 2}, {Kind: "wheel", Size: 3}, {Kind: "lollipop", Size: 3},
		{Kind: "spider", Size: 4}, {Kind: "barbell", Size: 5},
	} {
		_, err := sp.Build() // panicked in the generator before the minimums
		if err == nil || errors.Is(err, ErrGraphTooLarge) {
			t.Errorf("%s: err %v, want a too-small error", sp, err)
		}
	}
	for _, sp := range []GraphSpec{
		{Kind: "random", Size: 120, P: 0.03, Seed: 1},
		{Kind: "grid", Size: 10000},
		{Kind: "complete", Size: 64},
		{Kind: "barbell", Size: 6}, {Kind: "spider", Size: 5}, {Kind: "wheel", Size: 4},
	} {
		if _, err := sp.Build(); err != nil {
			t.Errorf("%s: %v", sp, err)
		}
	}
}

// TestPutGraphTooLargeIs400: the daemon answers an oversized spec with a
// 400 naming the limit, and keeps serving its current generation.
func TestPutGraphTooLargeIs400(t *testing.T) {
	srv, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 12}, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := send(t, http.MethodPut, ts.URL+"/graph", `{"kind":"complete","size":1000000}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "size limits") {
		t.Fatalf("PUT /graph complete(10^6): %d %s, want 400 naming the size limits", code, body)
	}
	var gr GraphReply
	if code := postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &gr); code != http.StatusOK || gr.N != 12 {
		t.Fatalf("after a rejected PUT: status %d, n=%d, want the 12-cycle still serving", code, gr.N)
	}
}

// TestOversizedBodiesAre413: every body-reading endpoint answers a body
// past its cap with 413 and an error naming the cap, and a body within
// the cap still reaches the decoder.
func TestOversizedBodiesAre413(t *testing.T) {
	srv, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 12}, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		limit        int
	}{
		{http.MethodPost, "/route", MaxRouteBody},
		{http.MethodPost, "/batch", MaxBatchBody},
		{http.MethodPut, "/graph", MaxGraphBody},
		{http.MethodPatch, "/graph", MaxDeltaBody},
	} {
		// A JSON string one byte past the cap: the decoder must read
		// past the limit to finish the value.
		big := `"` + strings.Repeat("x", tc.limit) + `"`
		code, body := send(t, tc.method, ts.URL+tc.path, big)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(body, "exceeds") {
			t.Errorf("%s %s with %d bytes: %d %s, want 413", tc.method, tc.path, len(big), code, body)
		}
		code, body = send(t, tc.method, ts.URL+tc.path, `"small"`)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s with a small bad body: %d %s, want 400", tc.method, tc.path, code, body)
		}
	}
	var rr RouteReply
	if code := postJSON(t, http.MethodPost, ts.URL+"/route", RouteRequest{S: 0, T: 6}, &rr); code != http.StatusOK || !rr.Delivered {
		t.Fatalf("route after the oversized bodies: status %d, delivered %v", code, rr.Delivered)
	}
}

// send issues a raw-body request and returns the status and reply body.
func send(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var er errorReply
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return resp.StatusCode, er.Error
	}
	return resp.StatusCode, string(bytes.TrimSpace(raw))
}

// TestPutGraphFileConfined: PUT /graph loads kind "file" topologies only
// from inside Config.GraphDir. Without a directory every file spec is
// refused with 403; with one, "..", absolute paths outside it and
// symlinks that lead out are refused with 403 before anything is
// opened, a missing file inside it is a 400, and a file inside it
// deploys. The operator's initial file spec is not confined.
func TestPutGraphFileConfined(t *testing.T) {
	g := gen.Cycle(12)
	outside := writeCSR(t, g) // a directory the daemon may not read
	dir := t.TempDir()
	inside := filepath.Join(dir, "ok.csr")
	if err := bigraph.FromGraph(g).WriteFile(inside); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(outside, filepath.Join(dir, "escape.csr")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(inside, filepath.Join(dir, "sub", "alias.csr")); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, outside)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		graphDir string
		body     string
		want     int
	}{
		{"no-dir", "", `{"kind":"file","path":"` + inside + `"}`, http.StatusForbidden},
		{"no-dir-bare-path", "", `{"path":"` + inside + `"}`, http.StatusForbidden},
		{"dotdot", dir, `{"kind":"file","path":"../x.csr"}`, http.StatusForbidden},
		{"dotdot-to-real-file", dir, `{"kind":"file","path":"` + rel + `"}`, http.StatusForbidden},
		{"dotdot-inside-out", dir, `{"kind":"file","path":"sub/../../x.csr"}`, http.StatusForbidden},
		{"absolute-outside", dir, `{"kind":"file","path":"` + outside + `"}`, http.StatusForbidden},
		{"system-file", dir, `{"kind":"file","path":"/etc/passwd"}`, http.StatusForbidden},
		{"the-dir-itself", dir, `{"kind":"file","path":"."}`, http.StatusForbidden},
		{"symlink-out", dir, `{"kind":"file","path":"escape.csr"}`, http.StatusForbidden},
		{"missing-inside", dir, `{"kind":"file","path":"none.csr"}`, http.StatusBadRequest},
		{"relative-inside", dir, `{"kind":"file","path":"ok.csr"}`, http.StatusOK},
		{"absolute-inside", dir, `{"kind":"file","path":"` + inside + `"}`, http.StatusOK},
		{"symlink-inside", dir, `{"kind":"file","path":"sub/alias.csr"}`, http.StatusOK},
		{"generator-without-dir", "", `{"kind":"cycle","size":10}`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The initial file lies outside GraphDir: the operator's
			// own spec is trusted.
			srv, err := New(Config{Graph: GraphSpec{Kind: "file", Path: outside}, Algorithms: []string{"alg2"}, GraphDir: tc.graphDir})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			code, body := send(t, http.MethodPut, ts.URL+"/graph", tc.body)
			if code != tc.want {
				t.Fatalf("PUT /graph %s: %d %s, want %d", tc.body, code, body, tc.want)
			}
			if code == http.StatusForbidden && !strings.Contains(body, "outside the graph directory") {
				t.Fatalf("403 body %q does not name the refusal", body)
			}
			var gr GraphReply
			if code := postJSON(t, http.MethodGet, ts.URL+"/graph", nil, &gr); code != http.StatusOK {
				t.Fatalf("GET /graph after PUT: %d", code)
			}
			if swapped := gr.Rev > 1; swapped != (tc.want == http.StatusOK) {
				t.Fatalf("rev %d after a PUT answered %d", gr.Rev, code)
			}
		})
	}
}
