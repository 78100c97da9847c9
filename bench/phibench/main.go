// Command phibench is the repository's benchmark: it builds the serving
// stack in-process from its public constructors, drives it closed-loop
// from two workers, checks the outputs, and prints every metric by name
// and unit. bench/README.md says what is measured and why.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload wire-hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -all
//	bash bench/run.sh -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run is split into this many measured segments, and every timing is
// the median over them (see runResult): a burst of neighbour noise costs
// the segments it hits, not the run.
const (
	runSegments = 30
	warmup      = 3 * time.Second
	timedSetups = 3
)

// metric is one named number as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of the generated op stream")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		traced   = flag.Int("trace", 0, "1: run the traced and comparison sub-runs and print the per-layer metrics")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, each in a fresh process")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N runs per workload (or of -workload alone) and compare them against the bounds")
	)
	flag.Parse()
	if runtime.NumCPU() < workers {
		fatal("phibench drives %d workers and will not run on %d CPU", workers, runtime.NumCPU())
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seconds, *workload))
	case *all:
		os.Exit(runAll(*seed, *seconds))
	}
	sp, ok := specByName(*workload)
	if !ok {
		fatal("unknown workload %q; have %s", *workload, workloadNames())
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	segDur := time.Duration(*seconds * float64(time.Second) / runSegments)
	fmt.Printf("phibench workload=%s seed=%d V=%d/s seconds=%g segments=%dx%v trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		sp.name, *seed, sp.rate, *seconds, runSegments, segDur, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	if *traced != 0 {
		res = runTraced(sp, *seed, segDur)
	} else {
		res = runEndToEnd(sp, *seed, segDur)
	}
	printMetrics(res.Metrics)
	if res.Correct {
		bf, err := readBenchmarkFile(benchmarkPath)
		if err == nil {
			err = bf.check(*traced != 0, res.Metrics)
		}
		if err != nil {
			fatal("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd is the untraced run every end-to-end number comes from.
func runEndToEnd(sp spec, seed int64, segDur time.Duration) result {
	r, err := run(runConfig{spec: sp, seed: seed, segments: runSegments, segDur: segDur, warmup: warmup, setups: timedSetups, verify: true})
	if err != nil {
		fmt.Printf("FAILED seed=%d: %v\n", seed, err)
		return result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	}
	defer r.st.close()
	r.print()
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted + uint64(r.verified),
		Failed:    r.failed,
		Metrics:   endToEndMetrics(r),
	}
}

func endToEndMetrics(r *runResult) map[string]metric {
	return map[string]metric{
		"setup_s":              {r.setupSeconds(), "s"},
		"allocs_per_lifecycle": {r.allocsPerLifecycle, "count"},
		"live_heap_mb":         {r.liveHeapMB, "MiB"},
	}
}

// ungatedTimings are the timings whose run-to-run spread on a shared host
// is wider than the widest bound worth setting (bench/README.md has the
// numbers): every run prints them, the traced invocation reports them
// with the per-layer metrics, and no bound is set on them.
func ungatedTimings(r *runResult) map[string]metric {
	return map[string]metric{
		"lifecycles_per_s":     {r.lifecyclesPerS(), "1/s"},
		"lookup_p50_us":        {r.lookupP50us(), "us"},
		"lookup_p99_us":        {r.lookupP99us(), "us"},
		"cpu_us_per_lifecycle": {r.cpuUsPerLifecycle(), "us"},
	}
}

// print writes what a reader needs to judge the run: sample counts, the
// transient check, and any failure with its seed.
func (r *runResult) print() {
	fmt.Printf("output check: %d paths matched the bare replay\n", r.verified)
	fmt.Printf("samples: %d lifecycles, %d timed lookups, fewest in a segment %d\n",
		r.samples.lifecycles, r.samples.lookups, r.samples.minLookups)
	lps := r.perSeg.lps
	for i := range lps {
		fmt.Printf("  seg %2d %8.0f/s p50 %7.2fus p99 %8.2fus cpu %7.2fus stolen %4.1f%%\n", i, lps[i], r.perSeg.p50us[i], r.perSeg.p99us[i], r.perSeg.cpuUs[i], 100*r.perSeg.steal[i])
	}
	fmt.Printf("segments: first %.0f/s last %.0f/s spread %.4f of median; timings over the %d of %d the host left alone; host stole %.1f%% of the CPU\n",
		lps[0], lps[len(lps)-1], spread(lps), len(r.quiet), len(lps), 100*r.stealFrac)
	fmt.Printf("operations: %d attempted, %d failed (failed_frac %g)\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	printMetrics(ungatedTimings(r))
	if r.firstErr != nil {
		fmt.Printf("FAILED seed=%d: %v\n", r.cfg.seed, r.firstErr)
	}
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(ms map[string]metric) {
	for _, n := range sortedNames(ms) {
		fmt.Printf("%-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
