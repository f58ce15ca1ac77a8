package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A workload is one set of inputs run pass after pass. Every pass
// rebuilds its state in setup, so passes are identical and their
// outputs can be compared with each other and with pinned digests.
type workload interface {
	// setup generates the pass's inputs from the seed and builds
	// everything the timed work needs, warm-up included. The harness
	// times it as set-up. tr is nil outside the traced run.
	setup(tr *tracer) error
	// run is the pass's timed work. A failed operation is kept for
	// check, never returned.
	run(tr *tracer)
	// check validates the pass's outputs, outside the timed window.
	check(ck *checker)
	// close releases what setup built.
	close()
}

// workloadOrder lists the workloads in BENCHMARK.json's order, the order
// the traced run visits them in.
var workloadOrder = []string{"table1", "network", "frontier", "serve"}

var workloads = map[string]func(seed int64, sz size) workload{
	"table1":   func(seed int64, sz size) workload { return newTable1(seed, sz) },
	"network":  func(seed int64, sz size) workload { return newNetwork(seed, sz) },
	"frontier": func(seed int64, sz size) workload { return newFrontier(seed, sz) },
	"serve":    func(seed int64, sz size) workload { return newServe(seed, sz) },
}

// size scales the workloads: fullSize is what the benchmark measures,
// smallSize the reduced run of the self-tests.
type size struct {
	table1Div      int64 // Table-1 row horizons are divided by this
	netRounds      int64 // timed network rounds per pass
	netWarmup      int64
	frontierRounds int64 // rounds per frontier cell
	serveConfigs   int   // distinct configs (misses) per serve pass
	serveHits      int   // hits requested after each miss
	serveWarm      int   // warm-up configs per serve set-up
	serveRounds    int64 // horizon of each served config
	minPasses      int
}

var (
	fullSize = size{
		table1Div: 1, netRounds: 100000, netWarmup: 20000,
		frontierRounds: 50000,
		serveConfigs:   300, serveHits: 30, serveWarm: 48, serveRounds: 2000,
		minPasses: 3,
	}
	smallSize = size{
		table1Div: 4, netRounds: 10000, netWarmup: 1000,
		frontierRounds: 10000,
		serveConfigs:   24, serveHits: 4, serveWarm: 4, serveRounds: 500,
		minPasses: 2,
	}
)

// passStats is what one pass measured.
type passStats struct {
	setup, wall, cpu  float64 // seconds
	passBytes         uint64  // allocated by the whole pass, set-up included
	mallocs, gcCycles uint64  // in the timed work
	gcPause           time.Duration
}

// measurePass runs one pass: set-up, then the timed work on a settled
// heap. tr is nil for an untraced pass.
func measurePass(w workload, tr *tracer) (passStats, error) {
	var ps passStats
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := w.setup(tr); err != nil {
		return ps, err
	}
	ps.setup = time.Since(t0).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	c0 := cpuSeconds()
	t1 := time.Now()
	w.run(tr)
	ps.wall = time.Since(t1).Seconds()
	ps.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m2)
	ps.passBytes = m2.TotalAlloc - m0.TotalAlloc
	ps.mallocs = m2.Mallocs - m1.Mallocs
	ps.gcCycles = uint64(m2.NumGC - m1.NumGC)
	ps.gcPause = time.Duration(m2.PauseTotalNs - m1.PauseTotalNs)
	return ps, nil
}

// endToEnd lists the end-to-end metrics in print order with their units.
var endToEnd = []struct{ name, unit, what string }{
	{"wall_s", "s", "wall seconds of one pass's timed work, median over passes"},
	{"cpu_s", "s", "user+sys CPU seconds of one pass's timed work, median over passes"},
	{"setup_s", "s", "seconds of one pass's set-up (inputs, construction, warm-up), median over passes"},
	{"alloc_mb", "MiB", "Go heap MiB allocated by one pass, set-up included, median over passes"},
	{"max_rss_mb", "MiB", "peak resident set of the process"},
}

// timedRun repeats passes of the workload with tracing off: at least
// sz.minPasses of them, and then as many more as fit in the given
// seconds, judging each pass by the length of the one before.
func timedRun(name string, seed int64, sz size, seconds float64, ck *checker, out io.Writer) (result, error) {
	w := workloads[name](seed, sz)
	var setups, walls, cpus, allocs []float64
	start := time.Now()
	var last time.Duration
	for pass := 0; pass < sz.minPasses || (time.Since(start)+last).Seconds() <= seconds; pass++ {
		t0 := time.Now()
		ps, err := measurePass(w, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		w.check(ck)
		w.close()
		setups = append(setups, ps.setup)
		walls = append(walls, ps.wall)
		cpus = append(cpus, ps.cpu)
		allocs = append(allocs, float64(ps.passBytes)/(1<<20))
		last = time.Since(t0)
	}
	values := map[string]float64{
		"wall_s":     median(walls),
		"cpu_s":      median(cpus),
		"setup_s":    median(setups),
		"alloc_mb":   median(allocs),
		"max_rss_mb": maxRSSMiB(),
	}
	perPass := map[string][]float64{"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "alloc_mb": allocs}
	fmt.Fprintf(out, "perfbench %s: seed %d, %d passes in %.1f s, GOMAXPROCS %d\n",
		name, seed, len(walls), time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	res := result{Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v := values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-11s %12.6f %-4s %s%s\n", m.name, v, m.unit, m.what, formatPasses(perPass[m.name]))
	}
	if s, ok := w.(*serveWorkload); ok {
		s.summary(out)
	}
	ck.finish(&res, out)
	return res, nil
}

func formatPasses(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// checker counts operations and the ones whose outputs failed a check.
// An operation's output digest is compared with the first pass's digest
// of the same operation (passes must agree) and, on the default seed at
// full size, with the digest pinned in digests.go.
type checker struct {
	attempted, failed int
	problems          []string
	first             map[string]string
	pinned            map[string]string
}

func newChecker(pin bool) *checker {
	ck := &checker{first: map[string]string{}}
	if pin {
		ck.pinned = pinnedDigests
	}
	return ck
}

// op records one operation: its output digest ("" when it has none)
// and the problems its checks found.
func (c *checker) op(name, digest string, problems ...string) {
	c.attempted++
	if digest != "" {
		if want, ok := c.pinned[name]; ok && want != digest {
			problems = append(problems, fmt.Sprintf("output digest %s, pinned %s", digest, want))
		}
		if prev, ok := c.first[name]; !ok {
			c.first[name] = digest
		} else if prev != digest {
			problems = append(problems, fmt.Sprintf("output digest %s differs from the first pass's %s", digest, prev))
		}
	}
	if len(problems) == 0 {
		return
	}
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, name+": "+strings.Join(problems, "; "))
	}
}

// finish copies the tally into the result and prints it.
func (c *checker) finish(res *result, out io.Writer) {
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0 && c.attempted > 0
	fmt.Fprintf(out, "  operations: %d attempted, %d failed\n", c.attempted, c.failed)
	for _, p := range c.problems {
		fmt.Fprintf(out, "  FAILED %s\n", p)
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// derive returns the stream-th input seed of a run: a splitmix64 hash
// of (seed, stream), positive so the façade never reads it as unset.
func derive(seed int64, stream uint64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + stream + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>2) + 1
}
