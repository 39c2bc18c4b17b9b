package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricSpec declares one reported metric. Bound, set for end-to-end
// metrics only, is the share of the parent commit's median by which the
// metric may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sim_msgs_per_s", "msgs/s", "higher", 0.25},
	{"live_heap_mib", "MiB", "lower", 0.2},
}

// perLayer lists the traced run's metrics, grouped by module. Every
// module's cpu_share is reported so that they sum to 1 with
// runtime.gc_share.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"sim.resume_ns", "ns", "lower", 0}, {"sim.timer_ns", "ns", "lower", 0},
		{"sim.resumes", "count", "lower", 0}, {"sim.switch_share", "ratio", "lower", 0},
		{"fabric.msgs", "count", "lower", 0}, {"fabric.mib", "MiB", "lower", 0},
		{"fabric.msg_ns", "ns", "lower", 0}, {"fabric.link_wait_sim_s", "s", "lower", 0},
		{"fabric.retransmits", "count", "lower", 0}, {"fabric.retx_useful_ratio", "ratio", "higher", 0},
		{"syncmgr.lock_acquires", "count", "lower", 0}, {"syncmgr.remote_acquires", "count", "lower", 0},
		{"syncmgr.barriers", "count", "lower", 0},
		{"lrc.misses", "count", "lower", 0}, {"lrc.miss_writers_p90", "count", "lower", 0},
		{"lrc.host_us_per_miss", "us", "lower", 0}, {"lrc.alloc_mib", "MiB", "lower", 0},
		{"lrc.gc_records_pruned", "count", "higher", 0}, {"lrc.gc_diffs_pruned", "count", "higher", 0},
		{"lrc.notice_mib", "MiB", "lower", 0},
		{"ec.host_us_per_acquire", "us", "lower", 0}, {"ec.alloc_mib", "MiB", "lower", 0},
		{"wtrap.twins", "count", "lower", 0}, {"wtrap.twin_ns", "ns", "lower", 0},
		{"wcollect.diffs", "count", "lower", 0}, {"wcollect.stamp_runs", "count", "lower", 0},
		{"wcollect.diff_ns", "ns", "lower", 0}, {"wcollect.alloc_mib", "MiB", "lower", 0},
		{"vm.faults", "count", "lower", 0}, {"nodebase.access_ns", "ns", "lower", 0},
		{"run.init_s", "s", "lower", 0}, {"run.simulate_s", "s", "lower", 0}, {"run.verify_s", "s", "lower", 0},
		{"harness.cell_p50_ms", "ms", "lower", 0}, {"harness.cell_p90_ms", "ms", "lower", 0},
		{"harness.occupancy", "ratio", "higher", 0}, {"sweep.emit_ms", "ms", "lower", 0},
		{"trace.overhead_ratio", "ratio", "lower", 0}, {"trace.analyze_ms", "ms", "lower", 0},
		{"runtime.mallocs", "count", "lower", 0}, {"runtime.alloc_mib", "MiB", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0}, {"runtime.gc_share", "ratio", "lower", 0},
		{"ledger.explained_ratio", "ratio", "higher", 0}, {"bench.traced_overhead_ratio", "ratio", "lower", 0},
	}
	for _, layer := range layers {
		l = append(l, metricSpec{layer + ".cpu_share", "ratio", "lower", 0})
	}
	return l
}()

// runSeconds is how long one untraced run repeats its workload.
const runSeconds = 25

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestWork `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func writeManifest(stdout, stderr io.Writer) int {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
