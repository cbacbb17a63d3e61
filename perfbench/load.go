package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is one workload's deployed system under load. Every method
// checks the walks it routes and records them in the run's tally.
type target interface {
	// do routes request i (modulo the pair count) on sender c.
	do(c, i int)
	// doBatch routes requests lo..lo+n-1 on sender c, as one submission
	// where the workload has a batch entry point.
	doBatch(c, lo, n int)
	// reset starts a phase; cold-csr swaps in a fresh, empty snapshot.
	reset() error
	// describe summarises the deployment for the log.
	describe() string
	// layers exposes what the traced run needs to replay the layers.
	layers() *topology
	// trafficLayers returns the per-layer metrics the workload's own
	// traffic measured since deploy.
	trafficLayers() map[string]float64
	close() error
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	// perSec is requests per second over the phase.
	perSec float64
	sent   int
	// cpu is the process's CPU time over the phase: user and system
	// time of every thread, client side included. Time the host steals
	// from the VM is not charged to it.
	cpu time.Duration
}

// closedLoop runs conns senders that each submit their next batch as
// soon as the previous one returns, starting at request base. It runs
// for d, or, when limit > 0, until it has sent limit requests.
func closedLoop(t target, conns, batch, base, limit int, d time.Duration) closedResult {
	var next, done atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for limit > 0 || time.Now().Before(stop) {
				lo := next.Add(int64(batch)) - int64(batch)
				if limit > 0 && lo >= int64(limit) {
					return
				}
				t.doBatch(c, base+int(lo), batch)
				done.Add(int64(batch))
			}
		}(c)
	}
	wg.Wait()
	n := done.Load()
	return closedResult{
		perSec: float64(n) / time.Since(start).Seconds(),
		sent:   int(n),
		cpu:    cpuTime() - cpu0,
	}
}

// cpuTime is the CPU time of every thread of the process so far.
func cpuTime() time.Duration { return clockCPU(clockProcessCPUTime) }

// openResult is what one open-loop phase measured.
type openResult struct {
	// lat is each request's latency from its due time to its reply.
	lat []time.Duration
	// lag is how late the generator released each request.
	lag []time.Duration
	// queued counts requests released while every sender was busy;
	// their wait is part of their latency.
	queued int
	// backlog is how long the last request waited for a sender.
	backlog time.Duration
}

// pacingSlack is how early the generator wakes before a due time: the
// kernel's timer slack (~60µs on a 2-vCPU Linux VM). When the process
// idles, Go's own timers fire only to the millisecond there, too coarse
// for sub-millisecond gaps.
const pacingSlack = 60 * time.Microsecond

// openLoop sends requests on a seeded Poisson schedule at rate per
// second for d. A generator releases each request at its due time into
// a queue that conns senders drain; a request that finds every sender
// busy waits in the queue, and every latency is timed from the due
// time, so a stall counts against each request it delays.
//
// Request i routes pair base+i; with batch > 0 each request is instead a
// doBatch of that many pairs.
func openLoop(t target, conns, batch, base int, rate float64, d time.Duration, rng *rand.Rand) openResult {
	n := max(int(rate*d.Seconds()), 1)
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	res := openResult{lat: make([]time.Duration, n), lag: make([]time.Duration, n)}
	picked := make([]time.Duration, n)
	queue := make(chan int, n) // sized to the number of sends
	var busy atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				dueAt := start.Add(due[i])
				busy.Add(1)
				picked[i] = time.Since(dueAt)
				if batch > 0 {
					t.doBatch(c, (base+i)*batch, batch)
				} else {
					t.do(c, base+i)
				}
				res.lat[i] = time.Since(dueAt)
				busy.Add(-1)
			}
		}(c)
	}
	for i := range due {
		dueAt := start.Add(due[i])
		if w := time.Until(dueAt); w > pacingSlack {
			ts := syscall.NsecToTimespec(int64(w - pacingSlack))
			_ = syscall.Nanosleep(&ts, nil) // an early wake only releases a request a little early
		}
		res.lag[i] = max(time.Since(dueAt), 0)
		if busy.Load() >= int64(conns) {
			res.queued++
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.backlog = picked[n-1] - res.lag[n-1]
	return res
}

// quantile returns the q-quantile of xs (nearest rank; xs is sorted in
// place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func quantileMS(xs []time.Duration, q float64) float64 {
	return float64(quantile(xs, q)) / 1e6
}

// meanNS is the mean of a duration sum over n events, in nanoseconds.
func meanNS(sum time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
