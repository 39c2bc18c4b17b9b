package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ecvslrc/internal/core"
	"ecvslrc/internal/lrc"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

// expectedFS holds the per-cell simulated results recorded with -record.
// A cell that failed when they were recorded has no entry: it is checked by
// its application's Verify alone.
//
//go:embed expected/*.json
var expectedFS embed.FS

// goldenPath is the bench table golden, relative to the repository root.
const goldenPath = "internal/harness/testdata/bench_all_micro.golden"

// recordSeeds are the fault-plan seeds whose fabric results are recorded.
// Fault-free fabric cells do not depend on the seed; under other seeds the
// faulty cells are checked by Verify alone.
const recordSeeds = 16

// expected is what one workload's outputs must match.
type expected struct {
	cells  map[string]string // cell key -> compact outcome JSON
	golden string            // the table report (table workload only)
}

func loadExpected(w *workload) (*expected, error) {
	data, err := expectedFS.ReadFile("expected/" + w.name + ".json")
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", w.name, err)
	}
	exp := &expected{cells: make(map[string]string, len(raw))}
	for k, v := range raw {
		var b bytes.Buffer
		if err := json.Compact(&b, v); err != nil {
			return nil, err
		}
		exp.cells[k] = b.String()
	}
	if w.name == "table" {
		g, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("table golden (run from the repository root): %w", err)
		}
		exp.golden = string(g)
	}
	return exp, nil
}

// outcome is the recorded view of one cell's simulated result.
type outcome struct {
	SeqTime      sim.Time      `json:"seq_time_ns,omitempty"`
	Stats        *core.Stats   `json:"stats,omitempty"`
	LinkWait     sim.Time      `json:"link_wait_ns,omitempty"`
	Retransmits  int64         `json:"retransmits,omitempty"`
	DupsDropped  int64         `json:"dups_dropped,omitempty"`
	RecoveryWait sim.Time      `json:"recovery_wait_ns,omitempty"`
	GC           *lrc.GCReport `json:"gc,omitempty"`
	NoticeBytes  int64         `json:"notice_bytes,omitempty"`
}

func outcomeJSON(res run.Result, seq bool) []byte {
	var o outcome
	if seq {
		o.SeqTime = res.Stats.Time
	} else {
		st := res.Stats
		o = outcome{
			Stats: &st, LinkWait: res.LinkWait, Retransmits: res.Faults.Retransmits,
			DupsDropped: res.Faults.DupsDropped, RecoveryWait: res.Faults.RecoveryWait,
			GC: res.GC, NoticeBytes: res.NoticeBytes,
		}
	}
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	return b
}

// layerCounts sums the simulated work of the cells that passed.
type layerCounts struct {
	msgs, bytes, faults, misses                 int64
	lockAcquires, remoteAcquires, barriers      int64
	ecAcquires                                  int64 // lock acquires in EC cells
	diffs, twins, stampRuns                     int64
	linkWait                                    sim.Time
	retransmits, dupsDropped                    int64
	gcRecordsPruned, gcDiffsPruned, noticeBytes int64
}

func (c *layerCounts) add(cr cellRun) {
	st := cr.res.Stats
	c.msgs += st.Msgs
	c.bytes += st.Bytes
	c.faults += st.Faults
	c.misses += st.AccessMisses
	c.lockAcquires += st.LockAcquires + st.ReadLockAcquires
	c.remoteAcquires += st.RemoteAcquires
	c.barriers += st.Barriers
	if strings.HasPrefix(cr.pkey.Impl, core.EC.String()+"-") {
		c.ecAcquires += st.LockAcquires + st.ReadLockAcquires
	}
	c.diffs += st.DiffsCreated
	c.twins += st.TwinsMade
	c.stampRuns += st.StampRunsSent
	c.linkWait += cr.res.LinkWait
	c.retransmits += cr.res.Faults.Retransmits
	c.dupsDropped += cr.res.Faults.DupsDropped
	if cr.res.GC != nil {
		c.gcRecordsPruned += cr.res.GC.RecordsPruned
		c.gcDiffsPruned += cr.res.GC.DiffsPruned
	}
	c.noticeBytes += cr.res.NoticeBytes
}

// tally is the checked account of one pass.
type tally struct {
	attempted, failed int
	// violations are outcomes that differ from this benchmark's recording
	// (a recorded cell that fails or changes, a report that differs from
	// the golden); any one makes the run incorrect.
	violations []string
	// knownFailures are failing cells with no recorded result.
	knownFailures []string
	okMsgs        int64
	okWallNS      int64 // summed host wall time of the cells that passed
	counts        layerCounts
	cellMS        []float64 // host wall time per cell run, in ms
	busyNS        int64     // summed host wall time of every cell run
	runs          map[perf.CellKey]int64
}

// account checks every cell of a pass against the recorded results and
// sums what the cells that passed did. A cell fails on any run error
// (panic, deadlock, delivery give-up, verification) or on a result
// that differs from its recording; a perf-registry identity with one failed
// run is left out of the rate entirely.
func account(out *passOut, reg *perf.Registry, exp *expected) *tally {
	t := &tally{runs: map[perf.CellKey]int64{}}
	bad := map[perf.CellKey]bool{}
	for _, cr := range out.runs {
		t.attempted++
		t.runs[cr.pkey]++
		want, recorded := exp.cells[cr.key]
		switch {
		case cr.err != nil:
			t.failed++
			bad[cr.pkey] = true
			msg := cr.key + ": " + firstLine(cr.err.Error())
			if recorded {
				t.violations = append(t.violations, "recorded as passing, now fails: "+msg)
			} else {
				t.knownFailures = append(t.knownFailures, msg)
			}
		case recorded && want != string(cr.got):
			t.failed++
			bad[cr.pkey] = true
			t.violations = append(t.violations, fmt.Sprintf("%s: result differs from the recording\n  got  %s\n  want %s", cr.key, cr.got, want))
		}
	}
	for _, cr := range out.runs {
		if cr.err == nil && !bad[cr.pkey] {
			t.okMsgs += cr.res.Stats.Msgs
			t.counts.add(cr)
		}
	}
	if exp.golden != "" && (out.report != "" || out.reportErr != nil) {
		switch {
		case out.reportErr != nil:
			t.violations = append(t.violations, "table report not assembled: "+firstLine(out.reportErr.Error()))
		case out.report != exp.golden:
			t.violations = append(t.violations, fmt.Sprintf("table report differs from %s at line %d", goldenPath, firstDiffLine(out.report, exp.golden)))
		}
	}
	for _, c := range reg.Snapshot(perf.Meta{}).Cells {
		k := c.Key()
		if t.runs[k] == 0 {
			continue // not a cell of this workload (a sweep's sequential reference)
		}
		avg := float64(c.WallNS) / float64(c.Runs) / 1e6
		for i := int64(0); i < c.Runs; i++ {
			t.cellMS = append(t.cellMS, avg)
		}
		t.busyNS += c.WallNS
		if !bad[k] {
			t.okWallNS += c.WallNS
		}
	}
	return t
}

// rate is the simulated-message rate of the cells that passed.
func (t *tally) rate() float64 {
	if t.okWallNS == 0 {
		return 0
	}
	return float64(t.okMsgs) / (float64(t.okWallNS) / 1e9)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}

// recordExpected reruns every workload once (the fabric workload once per
// recorded seed) and rewrites perfbench/expected/*.json from the cells that
// passed. The table is recorded only when its report matches the golden.
func recordExpected(stderr io.Writer) int {
	for _, w := range workloads {
		seeds := []uint64{1}
		if w.name == "fabric" {
			seeds = nil
			for s := uint64(0); s < recordSeeds; s++ {
				seeds = append(seeds, s)
			}
		}
		cells := map[string][]byte{}
		for _, seed := range seeds {
			pinEnv(w, seed, 0, 0)
			inst, err := w.setup(w, seed)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			out := inst.pass(perf.New(), nil, 0)
			if w.name == "table" {
				golden, err := os.ReadFile(goldenPath)
				if err != nil || out.report != string(golden) {
					fmt.Fprintf(stderr, "perfbench: table report does not match %s; not recording\n", goldenPath)
					return 1
				}
			}
			for _, cr := range out.runs {
				if cr.err != nil {
					fmt.Fprintf(stderr, "perfbench: %s: not recorded, fails: %s\n", cr.key, firstLine(cr.err.Error()))
					continue
				}
				cells[cr.key] = cr.got
			}
		}
		keys := make([]string, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b bytes.Buffer
		b.WriteString("{\n")
		for i, k := range keys {
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "  %q: %s%s\n", k, cells[k], sep)
		}
		b.WriteString("}\n")
		path := filepath.Join("perfbench", "expected", w.name+".json")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: wrote %s (%d cells)\n", path, len(keys))
	}
	return 0
}
