package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The gated metric cpu_us_per_msg is the process's CPU time per message
// in a closed loop on one processor (GOMAXPROCS=1), scaled to the speed
// of a reference core by a calibration loop timed between rounds;
// setup_s is scaled by the same factor.
//
// One processor, because with two the runtime's idle spinning and the
// traffic between cores depend on how the host happens to co-schedule
// the two threads: on a 2-vCPU VM, one busy loop beside the benchmark
// cut engine-walk's CPU per message at GOMAXPROCS=2 by a quarter, and
// moved it by 2–7% at GOMAXPROCS=1.
//
// The calibration, because a shared host's cores run slower from one
// run to the next as neighbours contend for their caches: on the
// reference VM, CPU time per message of every workload rose by up to
// 2.2x in such stretches. The calibration loop is fixed code of this
// package, never the program's, so its slowdown is the host's, and the
// program's CPU time is divided by that slowdown raised to calibExp.

// calibRefNS is the calibration loop's CPU time per step on the
// reference core: a 2-vCPU Intel Xeon KVM guest, Go 1.24. A run on a
// core of that speed reports its raw CPU time per message.
const calibRefNS = 10.0

// calibExp is how steeply the workloads' CPU time follows the loop's:
// on the reference VM, in 36 runs of the four workloads with the loop
// 20–80% slower than on a quiet host, CPU per message grew as the
// loop's slowdown to a power of 1.1–2.2, median 1.57, quartiles
// 1.46–1.72. The loop keeps its working set in L2, so contention slows
// it less than it slows the workloads, which reach into L3 and memory.
const calibExp = 1.5

// calibSlots is the calibration walk's table size: 256 Ki int32s
// (1 MiB), inside a core's L2 cache, where a warm routing walk's views
// live.
const calibSlots = 1 << 18

// calibSteps is the calibration loop's length between rounds: about
// 40 ms on the reference core.
const calibSteps = 1 << 22

// calibration is a fixed, allocation-free loop: a walk through a
// single-cycle permutation of calibSlots slots, with integer hashing and
// a data-dependent branch at every step, the kind of work a routing walk
// does.
type calibration struct {
	next []int32
	// sink keeps the hash live so the loop is not optimised away.
	sink uint64
}

func newCalibration() *calibration {
	next := make([]int32, calibSlots)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's shuffle, from a fixed seed: one cycle through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &calibration{next: next}
}

// run takes steps steps and returns the CPU time of the thread it ran
// on, so nothing else the process does is charged to it. An untimed
// walk through the whole table comes first: the workload round before
// may have evicted it, and how long a reload takes depends on that
// workload, not only on the host.
func (c *calibration) run(steps int) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c.walk(calibSlots)
	t0 := threadCPU()
	c.walk(steps)
	return threadCPU() - t0
}

func (c *calibration) walk(steps int) {
	i, h := int32(0), uint64(1)
	for s := 0; s < steps; s++ {
		i = c.next[i]
		h ^= uint64(i) * 0x9e3779b97f4a7c15
		h = h<<13 | h>>51
		if h&3 == 0 {
			h += uint64(c.next[(int(h>>8))&(calibSlots-1)])
		}
	}
	c.sink += h
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration { return clockCPU(clockThreadCPUTime) }

// Linux's CPU-time clocks. Unlike getrusage, which a 250 Hz kernel
// samples in 4 ms ticks, they count to the nanosecond.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clockCPU(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // cannot fail for these clocks
	}
	return time.Duration(ts.Nano())
}

// costRound is how long one closed-loop round runs between two
// calibrations (cold-csr's rounds are a fixed pass instead).
const costRound = time.Second

// slowdown times one calibration loop and returns its CPU time per
// step over the reference core's.
func (c *calibration) slowdown() float64 {
	return float64(c.run(calibSteps)) / calibSteps / calibRefNS
}

// atReference scales x, measured on a host slowed by slow, to the
// reference core.
func atReference(x, slow float64) float64 { return x / math.Pow(slow, calibExp) }

// measureCost runs closed-loop rounds on one processor for budget, after
// a warm-up, with a calibration before every round. It returns the raw
// CPU time per message in microseconds, a total over the whole run
// rather than a median over rounds so that every garbage collection the
// messages cause is charged to them, and the mean slowdown of the
// calibrations.
func measureCost(w workload, t target, env *env, budget time.Duration) (cpuUS, slow float64, err error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cal := newCalibration()
	if err := t.reset(); err != nil {
		return 0, 0, err
	}
	next := closedLoop(t, env.conns, w.batch, 0, 0, budget/20).sent
	var cpu time.Duration
	var msgs int
	var slows []float64
	rounds := max(int(budget/costRound), 1)
	start := time.Now()
	// A timed round lasts budget/rounds; a fixed pass repeats until the
	// budget is spent.
	for r := 0; r == 0 || (w.pass == 0 && r < rounds) || (w.pass > 0 && time.Since(start) < budget); r++ {
		slow := cal.slowdown()
		if err := t.reset(); err != nil {
			return 0, 0, err
		}
		cr := closedLoop(t, env.conns, w.batch, next, w.pass, budget/time.Duration(rounds))
		next += cr.sent
		cpu += cr.cpu
		msgs += cr.sent
		slows = append(slows, slow)
		env.logf("# round %d closed loop on one processor: %d senders, batch %d, %d msgs, %.2f CPU µs/msg; calibration %.3f ns/step\n",
			r, env.conns, w.batch, cr.sent, float64(cr.cpu)/1e3/float64(max(cr.sent, 1)), slow*calibRefNS)
	}
	cpuUS = float64(cpu) / 1e3 / float64(max(msgs, 1))
	slow = mean(slows)
	env.logf("# cost: %d msgs, raw %.3f CPU µs/msg, calibration %.3f ns/step (reference %.3f)\n",
		msgs, cpuUS, slow*calibRefNS, calibRefNS)
	return cpuUS, slow, nil
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
