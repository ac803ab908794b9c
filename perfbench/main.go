// Command perfbench is the repository's layered benchmark: one command
// that runs one named workload from a seed, measures it end to end with
// tracing off, or layer by layer with tracing on, checks the outputs,
// and prints every metric by name with its unit.
//
//	perfbench --workload oltp-fit --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads.go and BENCHMARK.json for why each exists):
//
//   - oltp-fit, scan-overflow: two closed-loop clients drive an
//     engine.Engine over a sharded cuckoo directory with pre-generated
//     access streams.
//   - sim-functional: the cmpsim functional simulator (Shared-L2, oracle).
//   - sim-timed: the coherence protocol simulator (apache).
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics from a traced run, a set of
// layer replays and an untraced reference run, and the spans are written
// to the --out directory. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported measurement.
type metric struct {
	name, unit string
	value      float64
}

// report accumulates a run's metrics, correctness failures and the
// attempted/failed operation counts of the result line.
type report struct {
	metrics   []metric
	failures  []string
	attempted uint64
	failed    uint64
}

func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is %v", name, v)
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// check records a correctness failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note prints one informational line (not part of the result).
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_out", "directory for the traced run's spans file")
	)
	flag.Parse()
	wl, ok := workloadByName(*wlName)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wlName, *seconds, *traced)
		flag.Usage()
		os.Exit(2)
	}
	note("workload %s seed %d seconds %v trace %d", wl.name, *seed, *seconds, *traced)
	note("host num_cpu=%d GOMAXPROCS=%d go=%s os=%s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	note("geometry %s", wl.geometry())

	r := &report{}
	budget := time.Duration(*seconds * float64(time.Second))
	if *traced == 1 {
		runTraced(wl, *seed, budget, *outDir, r)
	} else {
		runEndToEnd(wl, *seed, budget, r)
	}
	emit(r)
	if len(r.failures) > 0 {
		os.Exit(1)
	}
}

// emit prints every metric by name with its unit, the correctness
// verdict, and the JSON result line last.
func emit(r *report) {
	line := resultLine{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, m := range r.metrics {
		if _, dup := line.Metrics[m.name]; dup {
			r.check(false, "metric %s reported twice", m.name)
		}
		line.Metrics[m.name] = resultMetric{m.value, m.unit}
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Printf("metric %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	line.Correct = len(r.failures) == 0
	if line.Correct {
		note("correctness checks passed")
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
