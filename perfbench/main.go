// Command perfbench is the repository benchmark. It drives the simulator
// only through its public packages (harness, run, sweep, trace, perf and the
// layer packages), runs one workload per invocation, checks every output it
// produces, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 121, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with every
// tracing facility off; with -trace 1 they are the per-layer metrics of a
// separate traced run. See README.md in this directory for the definitions.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload table --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -manifest > BENCHMARK.json
//	bash perfbench/run.sh -record   # rewrite perfbench/expected/*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed (the fault-plan seed of the fabric workload)")
	seconds := fs.Int("seconds", runSeconds, "how long the untraced mode repeats the workload")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	record := fs.Bool("record", false, "rerun every workload once and rewrite perfbench/expected/*.json")
	setupChild := fs.Bool("setup-child", false, "internal: time one cold set-up of -workload and print it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		return writeManifest(stdout, stderr)
	case *record:
		return recordExpected(stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *traceMode == 1 {
		// Sample allocations finely enough to split them by layer. Set
		// before the first allocation of interest; the untraced mode keeps
		// the runtime default.
		runtime.MemProfileRate = 64 << 10
	}
	env := pinEnv(w, *seed, *seconds, *traceMode)
	if *setupChild {
		return runSetupChild(w, *seed, stdout, stderr)
	}
	exp, err := loadExpected(w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	var res *result
	if *traceMode == 1 {
		res, err = tracedRun(w, *seed, exp, stderr)
	} else {
		res, err = untracedRun(w, *seed, time.Duration(*seconds)*time.Second, exp, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return printResult(stdout, res)
}

// runEnv is the pinned host configuration of one run. It is printed with
// every result because each setting moves the wall-clock metrics by more
// than their bounds.
type runEnv struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	InFlight   int    `json:"cells_in_flight"`
	GOGC       int    `json:"gogc"`
	GoVersion  string `json:"go"`
}

// pinEnv fixes GOMAXPROCS, GOGC and the memory limit for the workload,
// whatever the caller's environment says.
func pinEnv(w *workload, seed uint64, seconds, traceMode int) runEnv {
	runtime.GOMAXPROCS(w.gomaxprocs)
	debug.SetGCPercent(gogc)
	debug.SetMemoryLimit(math.MaxInt64)
	return runEnv{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traceMode,
		GOMAXPROCS: w.gomaxprocs, InFlight: w.inflight, GOGC: gogc, GoVersion: runtime.Version(),
	}
}

const gogc = 100

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON line
}

func printResult(stdout io.Writer, r *result) int {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// median returns the median of xs (the mean of the middle pair for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by nearest rank; 0 when empty.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
