package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
