package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/serve"
)

// TestHTTPServersAreBounded: newHTTPServer sets header and idle
// timeouts, and no other http.Server literal exists in klocald, so every
// listener (daemon, cluster member, smokes) gets them.
func TestHTTPServersAreBounded(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	literals := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		literals += strings.Count(string(src), "&http.Server{")
	}
	if literals != 1 {
		t.Fatalf("%d http.Server literals in klocald, want only newHTTPServer's", literals)
	}
}

// TestGraphDirFlag: -graph-dir must name an existing directory. The
// daemon it configures keeps serving the operator's startup file from
// anywhere, while PUT /graph may load files only from inside the
// directory: a file there deploys, a path that leaves it gets a 403.
func TestGraphDirFlag(t *testing.T) {
	if dir, err := graphDirFlag(""); dir != "" || err != nil {
		t.Fatalf(`graphDirFlag("") = %q, %v; want "", nil`, dir, err)
	}
	base := t.TempDir()
	file := filepath.Join(base, "startup.csr")
	if err := bigraph.FromGraph(gen.Cycle(12)).WriteFile(file); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(base, "missing"), file} {
		if _, err := graphDirFlag(bad); err == nil {
			t.Fatalf("graphDirFlag(%q) accepted a non-directory", bad)
		}
	}
	graphs := filepath.Join(base, "graphs")
	if err := os.Mkdir(graphs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := bigraph.FromGraph(gen.Cycle(16)).WriteFile(filepath.Join(graphs, "c16.csr")); err != nil {
		t.Fatal(err)
	}
	dir, err := graphDirFlag(graphs)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Graph:      serve.GraphSpec{Kind: "file", Path: file}, // as -graph-file startup.csr builds it
		Algorithms: []string{"alg2"},
		GraphDir:   dir,
	})
	if err != nil {
		t.Fatalf("startup file outside -graph-dir: %v", err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for body, want := range map[string]int{
		`{"kind":"file","path":"c16.csr"}`:            http.StatusOK,
		`{"kind":"file","path":"../startup.csr"}`:     http.StatusForbidden,
		`{"kind":"file","path":"` + file + `"}`:       http.StatusForbidden,
		`{"kind":"file","path":"/proc/self/environ"}`: http.StatusForbidden,
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/graph", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("PUT /graph %s: %d, want %d", body, resp.StatusCode, want)
		}
	}
}
