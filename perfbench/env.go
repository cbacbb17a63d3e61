package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// env is the shared state of one run.
type env struct {
	opts options
	// conns is the number of concurrent senders, HTTP connections and
	// engine workers: nproc.
	conns int
	// dir holds run-time files; it lies inside the source tree.
	dir   string
	tally tally
	// log takes the progress lines; only the run's own goroutine writes.
	log io.Writer
}

func newEnv(o options, log io.Writer) (*env, error) {
	dir := filepath.Join(o.root, ".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("run dir: %w", err)
	}
	return &env{opts: o, conns: runtime.NumCPU(), dir: dir, log: log}, nil
}

// rng returns the generator of one input stream: the run's seed mixed
// with a fixed stream number, so each phase's inputs depend on --seed
// alone.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.opts.seed*7919 + stream))
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format, args...)
}

// tally counts routed requests and keeps the first few violations.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string
}

// maxViolations bounds how many violation messages a run keeps.
const maxViolations = 8

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.first) < maxViolations {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

func (t *tally) violations() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.first...)
}

// printStamp logs the environment the numbers were measured in.
func printStamp(e *env) {
	e.logf("# stamp: workload=%s seed=%d seconds=%d trace=%t cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		e.opts.workload, e.opts.seed, e.opts.seconds, e.opts.trace, cpuModel(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), commit(e.opts.root))
	e.logf("# load: one process, %d senders/connections, engine workers=%d; cpu_us_per_msg at GOMAXPROCS=1, traced traffic at GOMAXPROCS=%d\n",
		e.conns, e.conns, runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source the benchmark measured: the git commit when
// root is a git checkout, otherwise a hash of its Go sources.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
