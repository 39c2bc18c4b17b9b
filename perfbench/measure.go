package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecvslrc/internal/perf"
)

// setupSamples is how many cold set-ups setup_s is the median of: one in
// this process and the rest in fresh child processes, since the harness
// caches a set-up fills stay warm for the life of a process.
const setupSamples = 7

const mib = 1 << 20

// untracedRun measures the end-to-end metrics: set-up, then whole passes
// over the workload until d has elapsed (at least one), with every tracing
// facility off.
func untracedRun(w *workload, seed uint64, d time.Duration, exp *expected, stderr io.Writer) (*result, error) {
	setups, inst, err := measureSetups(w, seed)
	if err != nil {
		return nil, err
	}
	watch := newHeapWatch()
	defer watch.stop()
	res := &result{correct: true}
	var rates, heaps []float64
	known := map[string]bool{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		runtime.GC()
		watch.reset()
		reg := perf.New()
		out := inst.pass(reg, nil, 0)
		heaps = append(heaps, float64(watch.max())/mib)
		t := account(out, reg, exp)
		res.attempted += t.attempted
		res.failed += t.failed
		rates = append(rates, t.rate())
		for _, v := range t.violations {
			res.correct = false
			fmt.Fprintf(stderr, "perfbench: %s pass %d: %s\n", w.name, pass, v)
		}
		for _, k := range t.knownFailures {
			known[k] = true
		}
		fmt.Fprintf(stderr, "perfbench: %s pass %d: %.2fs wall, %d/%d cells failed, %.0f sim msgs/s\n",
			w.name, pass, out.wall.Seconds(), t.failed, t.attempted, t.rate())
	}
	res.metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"sim_msgs_per_s": {median(rates), "msgs/s"},
		"live_heap_mib":  {median(heaps), "MiB"},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("passes %d", len(rates)),
		fmt.Sprintf("failed_ratio %d/%d = %.4f ratio", res.failed, res.attempted, float64(res.failed)/float64(res.attempted)))
	for _, k := range sortedKeys(known) {
		res.notes = append(res.notes, "baseline failure (no recorded result): "+k)
	}
	return res, nil
}

// measureSetups times setupSamples cold set-ups and returns their durations
// in seconds together with this process's instance.
func measureSetups(w *workload, seed uint64) ([]float64, instance, error) {
	t0 := time.Now()
	inst, err := w.setup(w, seed)
	if err != nil {
		return nil, nil, err
	}
	secs := []float64{time.Since(t0).Seconds()}
	for len(secs) < setupSamples {
		s, err := childSetup(w, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up in a child process: %w", err)
		}
		secs = append(secs, s)
	}
	return secs, inst, nil
}

// childSetup runs one cold set-up in a fresh copy of this program and
// returns its duration in seconds.
func childSetup(w *workload, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-setup-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("unexpected child output %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

func runSetupChild(w *workload, seed uint64, stdout, stderr io.Writer) int {
	t0 := time.Now()
	if _, err := w.setup(w, seed); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "setup_s %.9f\n", time.Since(t0).Seconds())
	return 0
}

// heapWatch tracks the highest live heap: the runtime's
// /gc/heap/live:bytes, which each GC cycle sets to the bytes it marked. A
// sentinel object whose finalizer re-arms itself samples it once per cycle.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct {
	h   *heapWatch
	pad [64]byte // keeps the sentinel out of the tiny allocator
}

func newHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{h: h}, func(s *gcSentinel) {
		s.h.sample()
		if !s.h.stopped.Load() {
			s.h.arm()
		}
	})
}

func (h *heapWatch) sample() {
	v := readMetrics("/gc/heap/live:bytes")[0]
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapWatch) reset() { h.peak.Store(0); h.sample() }
func (h *heapWatch) stop()  { h.stopped.Store(true) }

// max is the highest live heap since the last reset, in bytes.
func (h *heapWatch) max() uint64 { h.sample(); return h.peak.Load() }

// readMetrics reads uint64 runtime metrics by name.
func readMetrics(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// spanLog keeps the benchmark's spans in memory: one per call into the
// program's packages, written out when the run ends. A nil *spanLog records
// nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type openSpan struct {
	l *spanLog
	i int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span; parent is the id of the span that caused it (0 for
// none).
func (l *spanLog) start(name string, parent int) openSpan {
	if l == nil {
		return openSpan{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNS: time.Since(l.t0).Nanoseconds()})
	return openSpan{l, len(l.spans) - 1}
}

func (o openSpan) id() int {
	if o.l == nil {
		return 0
	}
	return o.i + 1
}

func (o openSpan) end() {
	if o.l == nil {
		return
	}
	o.l.mu.Lock()
	o.l.spans[o.i].EndNS = time.Since(o.l.t0).Nanoseconds()
	o.l.mu.Unlock()
}

// write stores the spans as JSON, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
