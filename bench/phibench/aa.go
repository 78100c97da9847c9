package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
)

// child runs one workload in a fresh process — so heap and path tables
// never leak from one run into the next — and returns what it printed. A
// run without a result line, or with outputs that were not correct, is an
// error.
func child(workload string, seed int64, seconds float64, traced int, echo bool) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return out, fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", workload, seed, err, runErr)
	}
	if !res.Correct {
		return out, fmt.Errorf("%s seed %d: outputs not correct, %d of %d failed", workload, seed, res.Failed, res.Attempted)
	}
	return out, nil
}

// runAll is the one command: every workload, end to end and then layer
// by layer.
func runAll(seed int64, seconds float64) int {
	code := 0
	for _, sp := range specs {
		for traced := 0; traced <= 1; traced++ {
			if _, err := child(sp.name, seed, seconds, traced, true); err != nil {
				fmt.Println(err)
				code = 1
			}
			fmt.Println()
		}
	}
	return code
}

// stoleRE finds, in a run's output, how much of the CPU the host took,
// and metricRE the lines printMetrics wrote.
var (
	stoleRE  = regexp.MustCompile(`host stole [0-9.]+%`)
	metricRE = regexp.MustCompile(`(?m)^(\S+) +([0-9.]+) \S+$`)
)

// printedMetrics reads back every metric a run printed by name: the
// end-to-end ones, which are also in its result line, and the ungated
// timings, which are not.
func printedMetrics(out []byte) map[string]float64 {
	ms := map[string]float64{}
	for _, m := range metricRE.FindAllSubmatch(out, -1) {
		if v, err := strconv.ParseFloat(string(m[2]), 64); err == nil {
			ms[string(m[1])] = v
		}
	}
	return ms
}

// benchmarkPath is where the program finds the file that declares it;
// run.sh runs phibench from the repository root.
const benchmarkPath = "BENCHMARK.json"

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %v", path, err)
	}
	return bf, nil
}

// check holds the program to the file: the same workloads in the same
// order, and from a run exactly the metrics, with the units, that the file
// declares for its kind. Every run makes this check, so the two cannot
// drift apart unnoticed.
func (bf benchmarkFile) check(traced bool, got map[string]metric) error {
	if len(bf.Workloads) != len(specs) {
		return fmt.Errorf("%s names %d workloads, the program has %d", benchmarkPath, len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			return fmt.Errorf("%s: workload %d is %q, the program's is %q", benchmarkPath, i, w.Name, specs[i].name)
		}
	}
	want := bf.EndToEnd
	if traced {
		want = bf.PerLayer
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s declares %d metrics for this run, the program reported %d", benchmarkPath, len(want), len(got))
	}
	for _, d := range want {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			return fmt.Errorf("%s declares %s in %s, the program reported %+v", benchmarkPath, d.Name, d.Unit, m)
		}
	}
	return nil
}

// runAA runs two sets of n runs per workload, interleaved so both see the
// same drift of the host, each run on a seed of its own: set A takes
// seeds 1..n and set B n+1..2n. It prints every run, and for every
// end-to-end metric both medians, both spreads (inter-quartile range over
// median), the gap by which B's median is worse than A's, and the bound.
// It fails if a gap exceeds its bound, or a spread other than setup_s's
// does. The ungated timings are printed the same way, without a verdict.
// A non-empty only restricts it to that workload.
func runAA(n int, seconds float64, only string) int {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Println(err)
		return 2
	}
	rows := bf.EndToEnd
	for _, name := range sortedNames(ungatedTimings(&runResult{})) {
		better := "lower"
		if name == "lifecycles_per_s" {
			better = "higher"
		}
		rows = append(rows, declaredMetric{Name: name, Better: better})
	}
	code := 0
	for _, sp := range specs {
		if only != "" && sp.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				seed := int64(s*n + i + 1)
				out, err := child(sp.name, seed, seconds, 0, false)
				if err != nil {
					fmt.Println(err)
					return 1
				}
				printed := printedMetrics(out)
				fmt.Printf("%s set %c seed %2d:", sp.name, 'A'+s, seed)
				for _, e := range rows {
					sets[s][e.Name] = append(sets[s][e.Name], printed[e.Name])
					fmt.Printf(" %s=%.6g", e.Name, printed[e.Name])
				}
				fmt.Printf(" %s\n", stoleRE.Find(out))
			}
		}
		fmt.Printf("%s: 2 sets of %d runs, %gs each\n", sp.name, n, seconds)
		fmt.Printf("  %-22s %12s %12s %9s %9s %9s %7s\n", "metric", "median A", "median B", "spread A", "spread B", "gap B/A", "bound")
		for _, e := range rows {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma // how much worse B is: positive is worse
			if e.Better == "higher" {
				gap = -gap
			}
			bound, verdict := "none", ""
			if e.Bound > 0 {
				bound = fmt.Sprintf("%.2f", e.Bound)
				if gap > e.Bound {
					verdict = "  GAP EXCEEDS BOUND"
					code = 1
				}
				if e.Name != "setup_s" && (spread(a) > e.Bound || spread(b) > e.Bound) {
					verdict += "  SPREAD EXCEEDS BOUND"
					code = 1
				}
			}
			fmt.Printf("  %-22s %12.4f %12.4f %9.4f %9.4f %+9.4f %7s%s\n", e.Name, ma, mb, spread(a), spread(b), gap, bound, verdict)
		}
	}
	return code
}
