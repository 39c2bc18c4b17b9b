package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sweep"
)

// workload is one input set of the benchmark, with the host configuration
// it is pinned to.
type workload struct {
	name string
	why  string
	// gomaxprocs and inflight pin GOMAXPROCS and the number of cells
	// simulated concurrently.
	gomaxprocs int
	inflight   int
	// setup is the timed cold set-up: cost-model resolution, application
	// construction and the harness layout/image caches. It ends when the
	// first cell could start.
	setup func(w *workload, seed uint64) (instance, error)
}

// instance is a set-up workload, ready to run passes.
type instance interface {
	// pass runs every cell of the workload once, recording host cost in
	// reg and benchmark spans under parent in sp (nil when untraced).
	pass(reg *perf.Registry, sp *spanLog, parent int) *passOut
	// cells lists the distinct cells of a pass for the recorder run; nil
	// when the machine does not fit the trace recorder.
	cells() []cellSpec
}

var workloads = []*workload{
	{
		name: "table", gomaxprocs: 2, inflight: 2, setup: setupTable,
		why: "121 short 8-proc cells of the bench-scale paper tables (process switches, access path, twins/diffs); golden-checked. GOMAXPROCS=2, 2 in flight, GOGC=100, go1.24",
	},
	{
		name: "scale", gomaxprocs: 2, inflight: 1, setup: setupScale,
		why: "four 256-proc cells, Water and SOR x LRC-diff and EC-diff, notice GC and fan-in 16: LRC miss ordering and host memory at scale. GOMAXPROCS=2, 1 in flight, GOGC=100, go1.24",
	},
	{
		name: "fabric", gomaxprocs: 2, inflight: 2, setup: setupFabric,
		why: "48-cell 32-proc sweep over contention x seeded 0.1% loss: timer events, link claims and fault recovery. Seed = fault seed. GOMAXPROCS=2, 2 in flight, GOGC=100, go1.24",
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// warm fills the harness's per-(app, scale) layout and image caches, the
// part of set-up every later cell reuses.
func warm(scale apps.Scale, names []string) error {
	for _, n := range names {
		if _, err := apps.New(n, scale); err != nil {
			return err
		}
		if _, err := harness.InitLayout(n, scale); err != nil {
			return err
		}
		if _, err := harness.InitImage(n, scale); err != nil {
			return err
		}
	}
	return nil
}

func paperCost() (fabric.CostModel, error) { return fabric.PresetByName(sweep.BaselineName) }

// cellSpec identifies one cell for the recorder run.
type cellSpec struct {
	key  string
	cfg  harness.Config
	app  string
	impl core.Impl
	// sweepView marks a cell whose recorded result is what a sweep record
	// carries, which omits the notice-history footprint.
	sweepView bool
}

// cellRun is the outcome of one cell run within a pass.
type cellRun struct {
	key  string       // identity in the recorded results
	pkey perf.CellKey // identity in the perf registry (host wall time)
	res  run.Result   // simulated outcome; zero when err != nil
	got  []byte       // canonical JSON compared against the recorded result
	err  error
}

// passOut is everything one pass produced.
type passOut struct {
	runs []cellRun
	// report is the assembled table report (table workload only); reportErr
	// says why it could not be assembled.
	report    string
	reportErr error
	wall      time.Duration
	emitNS    int64 // sweep record emission (fabric workload only)
}

// ---- table ----------------------------------------------------------------

// tableInst runs the bench-scale paper tables: the exported pieces of
// harness.BenchReport, called in its order so every cell's result is
// visible, assembled into the report that must match the golden.
type tableInst struct {
	cfg   harness.Config
	names []string
}

func setupTable(w *workload, _ uint64) (instance, error) {
	cost, err := paperCost()
	if err != nil {
		return nil, err
	}
	if err := warm(apps.Bench, append(apps.Names(), apps.MicroNames()...)); err != nil {
		return nil, err
	}
	cfg := harness.Config{Scale: apps.Bench, NProcs: 8, Cost: cost, Parallel: w.inflight}
	return &tableInst{cfg: cfg, names: apps.Names()}, cfg.Validate()
}

func (t *tableInst) pass(reg *perf.Registry, sp *spanLog, parent int) *passOut {
	cfg := t.cfg
	cfg.Perf = reg
	out := &passOut{}
	start := time.Now()

	s := sp.start("harness.Table3", parent)
	t3, err3 := harness.Table3(cfg, t.names)
	s.end()
	s = sp.start("harness.TableModel/EC", parent)
	t4, err4 := harness.TableModel(cfg, core.EC, t.names)
	s.end()
	s = sp.start("harness.TableModel/LRC", parent)
	t5, err5 := harness.TableModel(cfg, core.LRC, t.names)
	s.end()
	s = sp.start("harness.Micro", parent)
	m, errm := harness.Micro(cfg)
	s.end()
	out.wall = time.Since(start)

	impls := core.Implementations()
	for i, app := range t.names {
		out.runs = append(out.runs, seqRun(app, t3, i, err3))
		for _, impl := range impls {
			var row *harness.Row
			if err3 == nil {
				if row = findRow(t3[i].ECImpls, impl); row == nil {
					row = findRow(t3[i].LRCImpls, impl)
				}
			}
			out.runs = append(out.runs, rowRun(cfg, app, impl, row, err3))
		}
	}
	for _, sec := range []struct {
		rows  map[string][]harness.Row
		err   error
		model core.Model
	}{{t4, err4, core.EC}, {t5, err5, core.LRC}} {
		for _, app := range t.names {
			for _, impl := range core.ModelImpls(sec.model) {
				out.runs = append(out.runs, rowRun(cfg, app, impl, findRow(sec.rows[app], impl), sec.err))
			}
		}
	}
	for _, name := range apps.MicroNames() {
		for _, impl := range impls {
			out.runs = append(out.runs, rowRun(cfg, name, impl, findRow(m[name], impl), errm))
		}
	}

	if err := errors.Join(err3, err4, err5, errm); err != nil {
		out.reportErr = err
		return out
	}
	var b strings.Builder
	b.WriteString(harness.Table2(cfg))
	b.WriteString("\n")
	b.WriteString(harness.FormatTable3(t3))
	b.WriteString("\n")
	b.WriteString(harness.FormatTableModel(core.EC, t4, t.names))
	b.WriteString("\n")
	b.WriteString(harness.FormatTableModel(core.LRC, t5, t.names))
	b.WriteString("\n")
	b.WriteString(harness.FormatCounters(t3))
	b.WriteString("\n")
	b.WriteString(harness.FormatMicro(m))
	out.report = b.String()
	return out
}

func (t *tableInst) cells() []cellSpec {
	var out []cellSpec
	for _, app := range append(append([]string(nil), t.names...), apps.MicroNames()...) {
		for _, impl := range core.Implementations() {
			out = append(out, cellSpec{key: cellKey("", app, impl.String(), t.cfg.NProcs), cfg: t.cfg, app: app, impl: impl})
		}
	}
	return out
}

func findRow(rows []harness.Row, impl core.Impl) *harness.Row {
	for i := range rows {
		if rows[i].Impl == impl {
			return &rows[i]
		}
	}
	return nil
}

func unwrapAll(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var out []error
		for _, e := range j.Unwrap() {
			out = append(out, unwrapAll(e)...)
		}
		return out
	}
	if err == nil {
		return nil
	}
	return []error{err}
}

func seqRun(app string, t3 []harness.Table3Result, i int, secErr error) cellRun {
	cr := cellRun{key: cellKey("", app, "seq", 1), pkey: perf.CellKey{App: app, Impl: "seq", NProcs: 1}}
	if secErr != nil {
		cr.err = secErr
		return cr
	}
	cr.res.Stats.Time = t3[i].SeqTime
	cr.got = outcomeJSON(cr.res, true)
	return cr
}

func rowRun(cfg harness.Config, app string, impl core.Impl, row *harness.Row, secErr error) cellRun {
	cr := cellRun{
		key:  cellKey(cfg.Variant, app, impl.String(), cfg.NProcs),
		pkey: perf.CellKey{Variant: cfg.Variant, App: app, Impl: impl.String(), NProcs: cfg.NProcs},
	}
	switch {
	case secErr != nil:
		// A failed table section returns no rows: every cell in it is lost.
		cr.err = secErr
	case row == nil:
		cr.err = fmt.Errorf("no row for %s/%v", app, impl)
	case row.Err != nil:
		cr.err = row.Err
	default:
		cr.res = row.Result
		cr.got = outcomeJSON(row.Result, false)
	}
	return cr
}

func cellKey(variant, app, impl string, nprocs int) string {
	if variant == "" {
		variant = sweep.BaselineName
	}
	return fmt.Sprintf("%s/%s/%s/%d", variant, app, impl, nprocs)
}

// ---- scale ----------------------------------------------------------------

// scaleInst runs four 256-proc bench-scale cells one at a time, with the
// large-machine defaults (notice GC on, barrier fan-in 16).
type scaleInst struct {
	cfg   harness.Config
	specs []cellSpec
}

func setupScale(w *workload, _ uint64) (instance, error) {
	cost, err := paperCost()
	if err != nil {
		return nil, err
	}
	if err := warm(apps.Bench, []string{"Water", "SOR"}); err != nil {
		return nil, err
	}
	cfg := harness.Config{Scale: apps.Bench, NProcs: 256, Cost: cost, Parallel: w.inflight, NoticeGC: true, BarrierFanIn: 16}
	inst := &scaleInst{cfg: cfg}
	for _, app := range []string{"Water", "SOR"} {
		for _, name := range []string{"LRC-diff", "EC-diff"} {
			impl, err := core.ParseImpl(name)
			if err != nil {
				return nil, err
			}
			inst.specs = append(inst.specs, cellSpec{key: cellKey("", app, name, cfg.NProcs), cfg: cfg, app: app, impl: impl})
		}
	}
	return inst, cfg.Validate()
}

func (s *scaleInst) pass(reg *perf.Registry, sp *spanLog, parent int) *passOut {
	out := &passOut{}
	start := time.Now()
	for _, c := range s.specs {
		cfg := c.cfg
		cfg.Perf = reg
		span := sp.start("harness.RunCell/"+c.key, parent)
		row := harness.RunCell(cfg, c.app, c.impl)
		span.end()
		out.runs = append(out.runs, rowRun(cfg, c.app, c.impl, &row, nil))
	}
	out.wall = time.Since(start)
	return out
}

// cells is nil: 256 processors exceed the trace recorder (trace.MaxProcs).
func (s *scaleInst) cells() []cellSpec { return nil }

// ---- fabric ---------------------------------------------------------------

// fabricApps are the applications of the fabric sweep.
var fabricApps = []string{"SOR", "QS", "Water", "Barnes-Hut", "IS", "3D-FFT"}

const fabricSpec = "contention=off,on fault=off,drop1e-3"

// fabricInst runs a sweep grid at 32 procs: six applications x {LRC-diff,
// EC-diff} x contention {off, on} x fault plan {off, drop1e-3}, the fault
// plan keyed by the benchmark seed.
type fabricInst struct {
	grid sweep.Grid
	seed uint64
}

func setupFabric(w *workload, seed uint64) (instance, error) {
	variants, err := sweep.ParseVariantSpec(fabricSpec)
	if err != nil {
		return nil, err
	}
	for i := range variants {
		if variants[i].Faults != nil {
			plan := *variants[i].Faults
			plan.Seed = seed
			variants[i].Faults = &plan
		}
	}
	var impls []core.Impl
	for _, name := range []string{"LRC-diff", "EC-diff"} {
		impl, err := core.ParseImpl(name)
		if err != nil {
			return nil, err
		}
		impls = append(impls, impl)
	}
	if err := warm(apps.Bench, fabricApps); err != nil {
		return nil, err
	}
	g := sweep.Grid{Scale: apps.Bench, Apps: fabricApps, Impls: impls, NProcs: []int{32}, Variants: variants, Parallel: w.inflight}
	return &fabricInst{grid: g, seed: seed}, nil
}

// key names a fabric cell; cells under a fault plan depend on the seed.
func (f *fabricInst) key(v sweep.Variant, app, impl string, nprocs int) string {
	k := cellKey(v.Name, app, impl, nprocs)
	if v.Faults != nil {
		k = fmt.Sprintf("seed=%d/%s", f.seed, k)
	}
	return k
}

func (f *fabricInst) pass(reg *perf.Registry, sp *spanLog, parent int) *passOut {
	g := f.grid
	g.Perf = reg
	out := &passOut{}
	start := time.Now()
	s := sp.start("sweep.Run", parent)
	recs, err := sweep.Run(g)
	s.end()
	out.wall = time.Since(start)

	var cf *sweep.CellFailures
	if err != nil && !errors.As(err, &cf) {
		// The sweep as a whole failed (a sequential reference, say): every
		// cell is lost.
		recs = nil
	}
	// Emission is timed (sweep.emit_ms) but not checked: the records it
	// renders are checked field by field below.
	s = sp.start("sweep.WriteJSONL", parent)
	t0 := time.Now()
	emitErr := sweep.WriteJSONL(io.Discard, recs)
	out.emitNS = time.Since(t0).Nanoseconds()
	s.end()
	got := make(map[perf.CellKey]*sweep.Record, len(recs))
	for i, r := range recs {
		got[perf.CellKey{Variant: r.Variant, App: r.App, Impl: r.Impl, NProcs: r.NProcs}] = &recs[i]
	}
	for _, v := range g.Variants {
		for _, app := range g.Apps {
			for _, np := range g.NProcs {
				for _, impl := range g.Impls {
					cr := cellRun{
						key:  f.key(v, app, impl.String(), np),
						pkey: perf.CellKey{Variant: v.Name, App: app, Impl: impl.String(), NProcs: np},
					}
					r, ok := got[cr.pkey]
					switch {
					case emitErr != nil:
						cr.err = emitErr
					case ok:
						cr.res = run.Result{
							App: r.App, NProcs: r.NProcs, Stats: r.Stats, LinkWait: r.LinkWait,
							Faults: fabric.FaultStats{Retransmits: r.Retransmits, DupsDropped: r.DupsDropped, RecoveryWait: r.RecoveryWait},
						}
						cr.got = outcomeJSON(cr.res, false)
					default:
						cr.err = cellFailure(err, v.Name, app, impl, np)
					}
					out.runs = append(out.runs, cr)
				}
			}
		}
	}
	return out
}

// cellFailure finds the sweep's error for one missing cell.
func cellFailure(err error, variant, app string, impl core.Impl, np int) error {
	label := fmt.Sprintf("sweep: %s/%s on %v, %d procs:", variant, app, impl, np)
	for _, e := range unwrapAll(err) {
		if strings.HasPrefix(e.Error(), label) {
			return e
		}
	}
	if err == nil {
		return fmt.Errorf("sweep returned no record for %s", label)
	}
	return err
}

func (f *fabricInst) cells() []cellSpec {
	var out []cellSpec
	g := f.grid
	for _, v := range g.Variants {
		for _, app := range g.Apps {
			for _, np := range g.NProcs {
				for _, impl := range g.Impls {
					// The cell configuration sweep.Run builds for this cell.
					cfg := harness.Config{
						Scale: g.Scale, NProcs: np, Cost: v.Cost, Contention: v.Contention,
						Faults: v.Faults, Timeout: g.Timeout, Parallel: 1, Variant: v.Name,
						Topology: v.Topology, BarrierFanIn: g.BarrierFanIn,
					}
					out = append(out, cellSpec{key: f.key(v, app, impl.String(), np), cfg: cfg, app: app, impl: impl, sweepView: true})
				}
			}
		}
	}
	return out
}
