package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/trace"
)

// cpuProfileHz is the traced run's CPU sampling rate. Raising it before
// pprof.StartCPUProfile makes the runtime print a harmless "cannot set cpu
// profile rate" notice; the profile carries the rate actually used.
const cpuProfileHz = 250

// spanDir is where the traced run writes its spans, inside the checkout.
const spanDir = ".bench_build"

// tracedRun measures the per-layer metrics. It makes three passes over the
// workload: an untraced reference pass (counts, phases, cell times), a pass
// under the CPU and heap profilers (time and allocations by layer), and,
// where the machine fits the event recorder, one recorded run of each
// distinct cell (resumes, misses by writer count, recorder cost). Unit-cost
// probes then price the counts.
func tracedRun(w *workload, seed uint64, exp *expected, stderr io.Writer) (*result, error) {
	sp := newSpanLog()
	s := sp.start("setup", 0)
	inst, err := w.setup(w, seed)
	s.end()
	if err != nil {
		return nil, err
	}
	res := &result{correct: true}
	// verify runs the correctness gates on one pass, inside a span.
	verify := func(label string, out *passOut, reg *perf.Registry) *tally {
		s := sp.start("verify/"+label, 0)
		defer s.end()
		return account(out, reg, exp)
	}
	check := func(label string, t *tally) {
		res.attempted += t.attempted
		res.failed += t.failed
		for _, v := range t.violations {
			res.correct = false
			fmt.Fprintf(stderr, "perfbench: %s %s: %s\n", w.name, label, v)
		}
	}

	// Pass A: the untraced reference.
	runtime.GC()
	rt0 := readMetrics("/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles")
	regA := perf.New()
	s = sp.start("pass/untraced", 0)
	outA := inst.pass(regA, sp, s.id())
	s.end()
	rt1 := readMetrics("/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles")
	tA := verify("untraced", outA, regA)
	check("untraced pass", tA)

	// Pass B: under the CPU and heap profilers.
	runtime.GC()
	heap0, err := heapAttribution()
	if err != nil {
		return nil, err
	}
	var cpuBuf bytes.Buffer
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, err
	}
	regB := perf.New()
	s = sp.start("pass/profiled", 0)
	outB := inst.pass(regB, sp, s.id())
	s.end()
	pprof.StopCPUProfile()
	runtime.GC()
	heap1, err := heapAttribution()
	if err != nil {
		return nil, err
	}
	check("profiled pass", verify("profiled", outB, regB))
	cpuProf, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpu, err := attribute(cpuProf, "cpu")
	if err != nil {
		return nil, err
	}
	alloc := heap1.minus(heap0)

	// Pass C: the event recorder on every distinct cell.
	var rec *recorderOut
	if specs := inst.cells(); specs != nil {
		s = sp.start("pass/recorded", 0)
		rec, err = recordCells(specs, w.inflight, sp, s.id())
		s.end()
		if err != nil {
			return nil, err
		}
		check("recorded pass", verify("recorded", rec.out, rec.reg))
	}

	s = sp.start("probes", 0)
	unit, err := runProbes()
	s.end()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := tA.counts
	total := float64(cpu.total)
	for _, l := range layers {
		put(l+".cpu_share", ratio(float64(cpu.byLayer[l]), total), "ratio")
	}
	put("runtime.gc_share", ratio(float64(cpu.noRepo), total), "ratio")
	put("sim.switch_share", ratio(float64(cpu.simWake), total), "ratio")

	put("sim.resume_ns", unit.resume, "ns")
	put("sim.timer_ns", unit.timer, "ns")
	put("fabric.msg_ns", unit.msg, "ns")
	put("wtrap.twin_ns", unit.twin, "ns")
	put("wcollect.diff_ns", unit.diff, "ns")
	put("nodebase.access_ns", unit.access, "ns")

	put("fabric.msgs", float64(c.msgs), "count")
	put("fabric.mib", float64(c.bytes)/mib, "MiB")
	put("fabric.link_wait_sim_s", c.linkWait.Seconds(), "s")
	put("fabric.retransmits", float64(c.retransmits), "count")
	put("fabric.retx_useful_ratio", ratio(float64(c.retransmits-c.dupsDropped), float64(c.retransmits)), "ratio")
	put("syncmgr.lock_acquires", float64(c.lockAcquires), "count")
	put("syncmgr.remote_acquires", float64(c.remoteAcquires), "count")
	put("syncmgr.barriers", float64(c.barriers), "count")
	put("lrc.misses", float64(c.misses), "count")
	put("lrc.host_us_per_miss", ratio(float64(cpu.byLayer["lrc"])/1e3, float64(c.misses)), "us")
	put("lrc.alloc_mib", float64(alloc.byLayer["lrc"])/mib, "MiB")
	put("lrc.gc_records_pruned", float64(c.gcRecordsPruned), "count")
	put("lrc.gc_diffs_pruned", float64(c.gcDiffsPruned), "count")
	put("lrc.notice_mib", float64(c.noticeBytes)/mib, "MiB")
	put("ec.host_us_per_acquire", ratio(float64(cpu.byLayer["ec"])/1e3, float64(c.ecAcquires)), "us")
	put("ec.alloc_mib", float64(alloc.byLayer["ec"])/mib, "MiB")
	put("wtrap.twins", float64(c.twins), "count")
	put("wcollect.diffs", float64(c.diffs), "count")
	put("wcollect.stamp_runs", float64(c.stampRuns), "count")
	put("wcollect.alloc_mib", float64(alloc.byLayer["wcollect"])/mib, "MiB")
	put("vm.faults", float64(c.faults), "count")

	phases := regA.Counters()
	put("run.init_s", float64(phases["phase_init_ns"])/1e9, "s")
	put("run.simulate_s", float64(phases["phase_simulate_ns"])/1e9, "s")
	put("run.verify_s", float64(phases["phase_verify_ns"])/1e9, "s")
	put("harness.cell_p50_ms", nearestRank(tA.cellMS, 0.5), "ms")
	put("harness.cell_p90_ms", nearestRank(tA.cellMS, 0.9), "ms")
	put("harness.occupancy", ratio(float64(tA.busyNS), float64(outA.wall.Nanoseconds())*float64(w.inflight)), "ratio")
	put("sweep.emit_ms", float64(outA.emitNS)/1e6, "ms")

	put("runtime.mallocs", float64(rt1[0]-rt0[0]), "count")
	put("runtime.alloc_mib", float64(rt1[1]-rt0[1])/mib, "MiB")
	put("runtime.gc_cycles", float64(rt1[2]-rt0[2]), "count")
	put("bench.traced_overhead_ratio", ratio(outB.wall.Seconds(), outA.wall.Seconds()), "ratio")

	// Recorder-derived metrics; 0 where the machine exceeds the recorder.
	var resumes, sends, recWall, refWall float64
	var writersP90 float64
	var analyzeMS float64
	if rec != nil {
		snapA := cellWalls(regA)
		for k, r := range rec.resumes {
			resumes += float64(tA.runs[k]) * float64(r)
			sends += float64(tA.runs[k]) * float64(rec.sends[k])
		}
		for k, wc := range cellWalls(rec.reg) {
			if a, ok := snapA[k]; ok {
				recWall += float64(wc.WallNS) / float64(wc.Runs)
				refWall += float64(a.WallNS) / float64(a.Runs)
			}
		}
		writersP90 = histQuantile(rec.writers, 0.9)
		analyzeMS = float64(rec.analyzeNS) / 1e6
	}
	put("sim.resumes", resumes, "count")
	put("lrc.miss_writers_p90", writersP90, "count")
	put("trace.overhead_ratio", ratio(recWall, refWall), "ratio")
	put("trace.analyze_ms", analyzeMS, "ms")
	explained := 0.0
	if rec != nil {
		modeled := resumes*unit.resume + sends*unit.msg + float64(c.twins)*unit.twin + float64(c.diffs)*unit.diff
		explained = ratio(modeled, float64(phases["phase_simulate_ns"]))
	}
	put("ledger.explained_ratio", explained, "ratio")

	res.metrics = m
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans "+path)
	res.notes = append(res.notes, fmt.Sprintf("failed_ratio %d/%d = %.4f ratio", res.failed, res.attempted, float64(res.failed)/float64(res.attempted)))
	return res, nil
}

// heapAttribution charges the allocations sampled so far to layers.
func heapAttribution() (*attribution, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	return attribute(p, "alloc_space")
}

// cellWalls indexes a registry's cell records by identity.
func cellWalls(reg *perf.Registry) map[perf.CellKey]perf.Cell {
	out := map[perf.CellKey]perf.Cell{}
	for _, c := range reg.Snapshot(perf.Meta{}).Cells {
		out[c.Key()] = c
	}
	return out
}

// histQuantile is the nearest-rank q-quantile of a value -> count histogram.
func histQuantile(h map[int64]int64, q float64) float64 {
	var n int64
	var keys []int64
	for k, c := range h {
		n += c
		keys = append(keys, k)
	}
	if n == 0 {
		return 0
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := int64(math.Ceil(q * float64(n)))
	var seen int64
	for _, k := range keys {
		if seen += h[k]; seen >= rank {
			return float64(k)
		}
	}
	return float64(keys[len(keys)-1])
}

// recorderOut is the recorded pass: the cells, their registry, and the
// counts read from their event traces.
type recorderOut struct {
	out       *passOut
	reg       *perf.Registry
	resumes   map[perf.CellKey]int64 // scheduler resumes per cell
	sends     map[perf.CellKey]int64 // messages sent per cell
	writers   map[int64]int64        // LRC misses by writers fetched from
	analyzeNS int64                  // trace.Analyze + trace.BuildProfile
}

// recordCells runs each cell once with the event recorder attached, reads
// the counts from its trace and runs the trace analyses, dropping each
// trace before the next cell so memory stays bounded.
func recordCells(specs []cellSpec, par int, sp *spanLog, parent int) (*recorderOut, error) {
	r := &recorderOut{out: &passOut{}, reg: perf.New(), resumes: map[perf.CellKey]int64{}, sends: map[perf.CellKey]int64{}, writers: map[int64]int64{}}
	runs := make([]cellRun, len(specs))
	type counts struct {
		resumes, sends, analyzeNS int64
		writers                   map[int64]int64
	}
	got := make([]counts, len(specs))
	start := time.Now()
	err := harness.ForEach(par, len(specs), func(i int) {
		c := specs[i]
		cfg := c.cfg
		cfg.Trace, cfg.Perf, cfg.Parallel = true, r.reg, 1
		s := sp.start("harness.RunCell/"+c.key, parent)
		row := harness.RunCell(cfg, c.app, c.impl)
		s.end()
		if c.sweepView {
			row.Result.NoticeBytes = 0
		}
		cr := rowRun(cfg, c.app, c.impl, &row, nil)
		cr.key = c.key
		runs[i] = cr
		if row.Err != nil || row.Trace == nil {
			return
		}
		cnt := counts{writers: map[int64]int64{}}
		for _, rec := range row.Trace.Merged() {
			switch rec.Kind {
			case trace.EvWake:
				cnt.resumes++
			case trace.EvSend:
				cnt.sends++
			case trace.EvMiss:
				cnt.writers[int64(rec.B)]++
			}
		}
		s = sp.start("trace.Analyze+BuildProfile/"+c.key, parent)
		t0 := time.Now()
		if a, err := apps.New(c.app, cfg.Scale); err == nil {
			meta := run.TraceMeta(a, c.impl, cfg.NProcs, cfg.Scale.String())
			trace.Analyze(row.Trace, meta)
			trace.BuildProfile(row.Trace, meta)
		}
		cnt.analyzeNS = time.Since(t0).Nanoseconds()
		s.end()
		got[i] = cnt
	})
	if err != nil {
		return nil, err
	}
	r.out.wall = time.Since(start)
	r.out.runs = runs
	for i, cr := range runs {
		r.resumes[cr.pkey] += got[i].resumes
		r.sends[cr.pkey] += got[i].sends
		r.analyzeNS += got[i].analyzeNS
		for k, v := range got[i].writers {
			r.writers[k] += v
		}
	}
	return r, nil
}
