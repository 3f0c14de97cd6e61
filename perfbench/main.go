// Command perfbench is the repository benchmark: it deploys MyProxy
// repositories in-process on loopback, drives them with closed-loop
// clients (one per core) through one of three workloads, checks every
// operation's output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of its output. README.md
// defines the workloads and metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/keypool"
)

// setups is how many times a trace-0 run builds the deployment; setup_s is
// the median.
const setups = 3

// slice is the length of the sub-windows whose median gives the rate and
// CPU metrics.
const slice = time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "session-get, connect-get or cluster-churn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 16, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	out := flag.String("out", ".bench_build", "directory for state and result files")
	commit := flag.String("commit", "unknown", "git commit of the checkout, for the host fingerprint")
	flag.Parse()
	spec, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (session-get, connect-get, cluster-churn), -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	res, detail, err := run(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	detail["host"] = fingerprint(*root, *commit, *seed)
	if err := writeDetail(*out, spec.name, *seed, *trace, detail); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printHuman(spec.name, res, detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result line plus the
// detail written beside it (host, sample counts, pool states, failures).
func run(spec workloadSpec, seed uint64, window time.Duration, traced bool, out string) (resultLine, map[string]any, error) {
	baseline := runtime.NumGoroutine()
	clients := spec.clients(runtime.NumCPU())
	detail := map[string]any{"workload": spec.name, "seed": seed, "clients": clients, "window_s": window.Seconds()}
	var problems []string
	n := setups
	if traced {
		n = 1
	}
	var setupTimes []float64
	var r *rig
	tr := newTracer()
	for i := 0; i < n; i++ {
		dir := filepath.Join(out, "state", fmt.Sprintf("%d-%d", os.Getpid(), i))
		t0 := time.Now()
		var err error
		r, err = newRig(spec, seed, dir, tr, clients)
		if err != nil {
			return resultLine{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < n-1 {
			if err := r.close(); err != nil {
				problems = append(problems, err.Error())
			}
			if err := settle(baseline); err != nil {
				problems = append(problems, err.Error())
			}
		}
	}
	detail["setup_s"] = setupTimes
	poolsAt := func() []keypool.Stats {
		var s []keypool.Stats
		for _, p := range r.pools() {
			s = append(s, p.Snapshot())
		}
		return s
	}
	detail["pools_at_window_start"] = poolsAt()

	var m measurement
	if traced {
		m = measureTraced(r, window)
	} else {
		m = measure(r, window)
	}
	detail["pools_at_window_end"] = poolsAt()
	var lm map[string]metric
	if traced {
		var err error
		if lm, err = layerMetrics(r, m); err != nil {
			_ = r.close() // the run is already failing
			return resultLine{}, nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		spans := r.tr.snapshot()
		if err := checkSpans(spans); err != nil {
			problems = append(problems, err.Error())
		}
		if err := writeSpans(out, spec.name, seed, spans); err != nil {
			problems = append(problems, err.Error())
		}
	}
	for _, w := range r.workers {
		for _, f := range w.fails {
			problems = append(problems, f)
		}
		if n := w.outFails.Load(); n > 0 {
			problems = append(problems, fmt.Sprintf("client %d: %d failed operation(s) outside the window", w.id, n))
		}
	}
	if err := r.close(); err != nil {
		problems = append(problems, err.Error())
	}
	if err := settle(baseline); err != nil {
		problems = append(problems, err.Error())
	}

	res := resultLine{Attempted: m.attempted, Failed: m.failed}
	res.Correct = m.failed == 0 && len(problems) == 0 && m.attempted > 0
	if traced {
		res.Metrics = lm
	} else {
		ok := float64(m.attempted - m.failed)
		res.Metrics = map[string]metric{
			"ops_per_s":      {m.opsPerS, "1/s"},
			"latency_p50_ms": {m.p50, "ms"},
			"latency_p99_ms": {m.p99, "ms"},
			"success_ratio":  {ok / float64(max(m.attempted, 1)), "ratio"},
			"cpu_ms_per_op":  {m.cpuMsPerOp, "ms"},
			"peak_heap_mb":   {m.peakHeapMB, "MB"},
			"setup_s":        {median(setupTimes), "s"},
		}
	}
	detail["latency_samples"] = m.okSamples
	detail["error_rate"] = float64(m.failed) / float64(max(m.attempted, 1))
	detail["slices"] = m.slices
	detail["problems"] = problems
	return res, detail, nil
}

// measurement is what one measured window yields.
type measurement struct {
	attempted, failed int
	okSamples         int
	opsPerS, p50, p99 float64
	cpuMsPerOp        float64
	peakHeapMB        float64
	slices            []sliceStat
	// untraced and traced slices of a trace-1 run, and the repository
	// counter deltas over the traced ones
	plain, traced phaseStat
	srv           serverCounters
}

// sliceStat is one one-second slice of the window.
type sliceStat struct {
	Ops   int     `json:"ops"`
	CPUMs float64 `json:"cpu_ms"`
}

// measure opens the untraced window, lets it run for window, and reduces
// the samples: rates and CPU per operation are medians over one-second
// slices, and latency percentiles are medians over sub-windows (see
// latencies).
func measure(r *rig, window time.Duration) measurement {
	heap := startHeapSampler()
	start := time.Now()
	r.windowStart.Store(int64(start.Sub(r.tr.epoch)))
	r.phase.Store(phaseWindow)
	k := int(window / slice)
	cpu := []time.Duration{cpuTime()}
	for i := 1; i <= k; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		cpu = append(cpu, cpuTime())
	}
	r.stop()
	var m measurement
	m.peakHeapMB = heap.stop() / (1 << 20)
	counts := make([]int, k)
	var ok []sample
	for _, s := range collect(r) {
		m.attempted++
		if !s.ok {
			m.failed++
			continue
		}
		ok = append(ok, s)
		if i := int(s.start / int64(slice)); i < k {
			counts[i]++
		}
	}
	m.okSamples = len(ok)
	m.p50, m.p99 = latencies(ok, window)
	var rates, perOp []float64
	for i := 0; i < k; i++ {
		c := (cpu[i+1] - cpu[i]).Seconds() * 1e3
		m.slices = append(m.slices, sliceStat{Ops: counts[i], CPUMs: c})
		rates = append(rates, float64(counts[i])/slice.Seconds())
		if counts[i] > 0 {
			perOp = append(perOp, c/float64(counts[i]))
		}
	}
	m.opsPerS, m.cpuMsPerOp = median(rates), median(perOp)
	return m
}

// minLatencySamples is the fewest samples a sub-window needs for its p99
// to have ten samples beyond it.
const minLatencySamples = 1000

// latencies returns the p50 and p99 in ms. The window is cut into as many
// equal sub-windows as hold minLatencySamples each on average (at most one
// per slice, at least one); each percentile is the median of the
// sub-windows' values, so one stalled second moves it less.
func latencies(ok []sample, window time.Duration) (p50, p99 float64) {
	k := max(1, min(int(window/slice), len(ok)/minLatencySamples))
	sub := make([][]float64, k)
	for _, s := range ok {
		i := min(k-1, max(0, int(s.start*int64(k)/int64(window))))
		sub[i] = append(sub[i], float64(s.lat)/1e6)
	}
	var p50s, p99s []float64
	for _, lats := range sub {
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		p50s = append(p50s, quantile(lats, 0.50))
		p99s = append(p99s, quantile(lats, 0.99))
	}
	return median(p50s), median(p99s)
}

func collect(r *rig) []sample {
	var all []sample
	for _, w := range r.workers {
		all = append(all, w.samples...)
	}
	return all
}

// cpuTime is the process's user+system CPU time: clients and repositories
// share the process, so this is the whole system's cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func printHuman(name string, res resultLine, detail map[string]any) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s: attempted %d, failed %d, error_rate %.6f, latency samples %v\n",
		name, res.Attempted, res.Failed, detail["error_rate"], detail["latency_samples"])
	for _, k := range keys {
		fmt.Printf("#   %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if p, _ := detail["problems"].([]string); len(p) > 0 {
		fmt.Printf("# problems:\n#   %s\n", strings.Join(p, "\n#   "))
	}
	for _, k := range []string{"pools_at_window_start", "pools_at_window_end"} {
		pools, _ := detail[k].([]keypool.Stats)
		fmt.Printf("# %s (portal first):", k)
		for _, p := range pools {
			fmt.Printf(" ready %d generated %d;", p.Ready, p.Generated)
		}
		fmt.Println()
	}
	host, _ := json.Marshal(detail["host"])
	fmt.Printf("# host %s\n", host)
}
