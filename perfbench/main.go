// Command perfbench is the repository's benchmark: one command, three
// workloads, every output checked against a computation made outside the
// compiler.
//
//	perfbench --workload compile-corpus|simulate-kernels|titand-mix \
//	          --seed N --seconds S --trace 0|1
//
// Each run does a fixed, seeded sequence of operations whose size is a
// function of --seconds alone, so two runs with the same arguments do the
// same work. The last line of standard output is one JSON object:
// correct, attempted, failed, and the metrics — the end-to-end metrics
// with --trace 0, the per-layer metrics of a span-traced run with
// --trace 1. Failed operations are listed on standard error with their
// unit and reason. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// config is one run's arguments.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: counts, metrics, and the
// failures it saw. A failure of a known-fault operation (see faults.go)
// is counted but leaves the run correct; any other failure makes it
// incorrect.
type report struct {
	attempted int
	failed    int
	correct   bool
	metrics   map[string]metric
	failures  []string
}

func newReport() *report { return &report{correct: true, metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed operation. known marks the named faults the
// benchmark keeps on purpose.
func (r *report) fail(known bool, unit, reason string) {
	r.failed++
	if !known {
		r.correct = false
	}
	tag := "FAIL"
	if known {
		tag = "FAIL (known fault)"
	}
	r.failures = append(r.failures, fmt.Sprintf("%s %s: %s", tag, unit, reason))
}

// wrong records a check that failed outside any counted operation (a
// property check made once per run): the run is incorrect.
func (r *report) wrong(what, reason string) {
	r.correct = false
	r.failures = append(r.failures, fmt.Sprintf("CHECK %s: %s", what, reason))
}

// endToEndNames and perLayerNames are the metrics of BENCHMARK.json:
// every workload reports all of the first with --trace 0 and all of the
// second with --trace 1.
var (
	endToEndNames = []string{"setup_s", "peak_rss_mb", "op_ms.p50", "op_ms.p90", "ops_per_s",
		"sim_minstr_per_s", "sim_cycles.geomean", "alloc_mb_per_op", "code_size_instrs"}
	perLayerNames = func() []string {
		names := []string{"parser.parse_ms", "sema.check_ms", "lower.lower_ms"}
		for _, p := range passNames {
			names = append(names, "pass."+p+"_ms")
		}
		names = append(names, "pass.il_stmts", "analysis.hit_ratio",
			"codegen.generate_ms", "codegen.schedule_ms", "codegen.static_instrs",
			"go.gc_cycles_per_op", "go.gc_cpu_fraction",
			"trace.compile_uncovered_ms", "trace.overhead_pct",
			"titan.run_ms.p50", "titan.ns_per_instr", "titan.sync_stall_cycles",
			"titan.join_idle_cycles", "titan.mask_lane_util",
			"service.hit_ms.p50", "service.miss_ms.p50", "service.hit_ratio", "service.response_kb")
		for _, p := range passNames {
			names = append(names, "service.pass_ms."+p)
		}
		return append(names, "tune.tune_ms", "tune.candidates")
	}()
)

var workloads = map[string]func(config) (*report, error){
	"compile-corpus":   runCompileCorpus,
	"simulate-kernels": runSimulateKernels,
	"titand-mix":       runTitandMix,
}

func main() {
	var (
		name  = flag.String("workload", "", "workload: compile-corpus, simulate-kernels or titand-mix")
		seed  = flag.Int64("seed", 1, "seed for the generated inputs")
		secs  = flag.Int("seconds", 10, "run length; sets the amount of work (1..600)")
		trace = flag.Int("trace", 0, "1: run traced and report per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *secs < 1 || *secs > 600 {
		fatal(errors.New("--seconds must be in 1..600"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("--trace must be 0 or 1"))
	}
	start := time.Now()
	rep, err := run(config{seed: *seed, seconds: *secs, trace: *trace == 1})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations in %.1f s\n", *name, *seed, rep.attempted, time.Since(start).Seconds())
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, f)
	}
	want := endToEndNames
	if *trace == 1 {
		want = perLayerNames
	}
	if len(rep.metrics) != len(want) {
		fatal(fmt.Errorf("reported %d metrics, want %d", len(rep.metrics), len(want)))
	}
	for _, m := range want {
		if v, ok := rep.metrics[m]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fatal(fmt.Errorf("metric %s missing or not a number", m))
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": rep.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// setupRuns is how many times a workload sets up per run; setup_s is
// their median and the last set-up is the one measured.
const setupRuns = 15

// timedSetup runs setup setupRuns times, each from a freshly collected
// heap, and returns the last result with the median duration in seconds.
// Only setup is timed: the caller makes the inputs beforehand, and
// teardown (nil when there is nothing to undo) releases every result but
// the last, outside the timer.
func timedSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		runtime.GC()
		start := cpuNow()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, (cpuNow() - start).Seconds())
		last = v
	}
	return last, quantile(ds, 0.5), nil
}

// warmSeed generates the units set-up warms with. It is fixed, so
// set-up does the same work whatever the run's seed.
const warmSeed = 0

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuNow is the process's CPU time, the collector's threads included.
// Operations that run one at a time are timed with it rather than with
// the wall clock: the host is a shared VM whose hypervisor takes CPU
// away in bursts of minutes, and the guest's CPU clocks leave that
// stolen time out while the wall clock counts it.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		fatal(fmt.Errorf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// workers is the host parallelism every workload stays within: no more
// client connections or server workers than nproc, which is also Go's
// default GOMAXPROCS.
func workers() int { return runtime.NumCPU() }
