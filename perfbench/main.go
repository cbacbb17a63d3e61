// Command perfbench is klocal's benchmark. It runs one of four seeded
// workloads against the program's public entry points, checks every
// routed walk, and prints one JSON result line:
//
//	perfbench --workload engine-walk --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, measured by spans this package records
// around calls into each module (see README.md). Any incorrect walk or
// failed request makes the result "correct": false and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"klocal/internal/route"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// root is the source tree the benchmark was built from; run-time
	// files (the cold-csr graph file) go under its .bench_build.
	root string
	// alg replaces Algorithm 2 in the in-process workloads (tests only).
	alg route.Algorithm
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds (set-up excluded)")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&o.root, "root", ".", "source tree root; run-time files go under its .bench_build")
	flag.Parse()
	o.trace = trace == 1
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and returns its result. Progress and the
// human-readable metric table go to log.
func run(w workload, o options, log io.Writer) (*result, error) {
	env, err := newEnv(o, log)
	if err != nil {
		return nil, err
	}
	printStamp(env)
	var vals map[string]float64
	if o.trace {
		vals, err = runTraced(w, env)
	} else {
		vals, err = runPlain(w, env)
	}
	if err != nil {
		return nil, err
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := &result{
		Attempted: env.tally.attempted.Load(),
		Failed:    env.tally.failed.Load(),
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, m := range names {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s measured no %s", w.name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		env.logf("%-28s %16.6g %s\n", m.name, v, m.unit)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, msg := range env.tally.violations() {
		fmt.Fprintln(os.Stderr, "perfbench: violation:", msg)
	}
	return res, nil
}

// runPlain is the end-to-end run: set up several times, then measure
// the CPU cost of a message.
func runPlain(w workload, env *env) (map[string]float64, error) {
	t, setups, err := deployTimed(w, env, 0)
	if err != nil {
		return nil, err
	}
	defer t.close()
	env.logf("# workload %s: %s\n", w.name, t.describe())
	cpu, slow, err := measureCost(w, t, env, time.Duration(env.opts.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	// Both times are scaled to the reference core by the run's mean
	// calibration (see cost.go).
	vals := map[string]float64{"cpu_us_per_msg": atReference(cpu, slow)}
	vals["setup_s"] = atReference(median(setups), slow)
	env.logf("# set-up: median %.4f s over %d builds before scaling\n", median(setups), len(setups))
	vals["heap_mb"] = liveHeapMB()
	att := env.tally.attempted.Load()
	vals["delivered_share"] = float64(att-env.tally.failed.Load()) / float64(max(att, 1))
	return vals, nil
}

// A run builds its deployment at least minSetups times and until the
// builds add up to setupSpan, at most maxSetups times; setup_s is the
// median, so cheap set-ups get more samples.
const (
	minSetups = 3
	maxSetups = 15
	setupSpan = time.Second
)

// deployTimed builds the workload's deployment the given number of
// times (or, with rounds = 0, as often as minSetups, maxSetups and
// setupSpan ask), keeps the last one and returns every build's wall
// time in seconds.
func deployTimed(w workload, env *env, rounds int) (target, []float64, error) {
	var secs []float64
	var spent time.Duration
	for i := 0; ; i++ {
		start := time.Now()
		t, err := w.deploy(env)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy %s: %w", w.name, err)
		}
		took := time.Since(start)
		spent += took
		secs = append(secs, took.Seconds())
		if i+1 == rounds || (rounds == 0 && (i+1 == maxSetups || (i+1 >= minSetups && spent >= setupSpan))) {
			return t, secs, nil
		}
		if err := t.close(); err != nil {
			return nil, nil, fmt.Errorf("close %s: %w", w.name, err)
		}
	}
}

// traffic drives w.rounds rounds of the workload's phases over budget
// seconds, after a warm-up, at GOMAXPROCS=nproc. Each round has a
// closed-loop phase, which routes w.pass requests instead when that is
// set, then open-loop phases at r1 and r2, interleaved so that a
// stretch of host noise lands on every phase rather than on one.
// msgs_per_s is the median over rounds; p50 is taken over every round's
// requests at a rate; p90 and p99 are medians over rounds, since host
// stalls decide tails. The generator's lateness samples are appended to
// lags.
func traffic(w workload, t target, env *env, budget float64, lags *[]time.Duration) (map[string]float64, error) {
	sec := func(share float64) time.Duration {
		return time.Duration(share / float64(w.rounds) * budget * float64(time.Second))
	}
	if err := t.reset(); err != nil {
		return nil, err
	}
	// Every phase continues through the pair list where the last one
	// stopped, so rounds route different pairs.
	next := closedLoop(t, env.conns, w.batch, 0, 0, sec(0.05*float64(w.rounds))).sent
	perRound := map[string][]float64{}
	pooled := make([][]time.Duration, 2)
	for r := 0; r < w.rounds; r++ {
		if err := t.reset(); err != nil {
			return nil, err
		}
		cr := closedLoop(t, env.conns, w.batch, next, w.pass, sec(0.25))
		next += cr.sent
		perRound["msgs_per_s"] = append(perRound["msgs_per_s"], cr.perSec)
		env.logf("# round %d closed loop: %d senders, batch %d, %.0f msgs/s\n", r, env.conns, w.batch, cr.perSec)
		for i, rate := range []float64{w.r1, w.r2} {
			if err := t.reset(); err != nil {
				return nil, err
			}
			o := openLoop(t, env.conns, w.openBatch, next, rate, sec([]float64{0.3, 0.4}[i]), env.rng(int64(10+2*r+i)))
			next += len(o.lat)
			pooled[i] = append(pooled[i], o.lat...)
			tag := fmt.Sprintf("r%d", i+1)
			p50, p90, p99 := quantileMS(o.lat, 0.50), quantileMS(o.lat, 0.90), quantileMS(o.lat, 0.99)
			perRound["p90_ms."+tag] = append(perRound["p90_ms."+tag], p90)
			perRound["p99_ms."+tag] = append(perRound["p99_ms."+tag], p99)
			*lags = append(*lags, o.lag...)
			env.logf("# round %d %s: %.0f req/s offered, %d sent (%d beyond p99), %d found every sender busy, last waited %.3f ms for a sender; p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, generator p99 lag %.3f ms\n",
				r, tag, rate, len(o.lat), len(o.lat)/100, o.queued, o.backlog.Seconds()*1e3, p50, p90, p99, quantileMS(o.lag, 0.99))
		}
	}
	vals := map[string]float64{}
	for name, xs := range perRound {
		vals[name] = median(xs)
	}
	for i, l := range pooled {
		if len(l) > 0 {
			vals[fmt.Sprintf("p50_ms.r%d", i+1)] = quantileMS(l, 0.50)
		}
	}
	return vals, nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
