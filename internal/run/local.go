package run

import (
	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// local is the sequential reference DSM: a single processor with direct
// memory access, no-op synchronization and an accumulated virtual clock. It
// corresponds to "the sequential version of the application" whose execution
// time the paper's Table 3 reports in the "1 proc." column.
type local struct {
	im      *mem.Image
	clock   sim.Time
	ended   bool
	endTime sim.Time
}

// Proc implements core.DSM.
func (l *local) Proc() int { return 0 }

// NProcs implements core.DSM.
func (l *local) NProcs() int { return 1 }

// Model implements core.DSM. The sequential program takes the LRC code path,
// which is the program "as written for a sequentially consistent system"
// (Section 3.3: no changes were required for LRC).
func (l *local) Model() core.Model { return core.LRC }

// ReadI32 implements core.DSM.
func (l *local) ReadI32(a mem.Addr) int32 { return l.im.ReadI32(a) }

// WriteI32 implements core.DSM.
func (l *local) WriteI32(a mem.Addr, v int32) { l.im.WriteI32(a, v) }

// ReadF32 implements core.DSM.
func (l *local) ReadF32(a mem.Addr) float32 { return l.im.ReadF32(a) }

// WriteF32 implements core.DSM.
func (l *local) WriteF32(a mem.Addr, v float32) { l.im.WriteF32(a, v) }

// ReadF64 implements core.DSM.
func (l *local) ReadF64(a mem.Addr) float64 { return l.im.ReadF64(a) }

// WriteF64 implements core.DSM.
func (l *local) WriteF64(a mem.Addr, v float64) { l.im.WriteF64(a, v) }

// Acquire implements core.DSM (no-op).
func (l *local) Acquire(core.LockID) {}

// AcquireForRebind implements core.DSM (no-op).
func (l *local) AcquireForRebind(core.LockID) {}

// AcquireRead implements core.DSM (no-op).
func (l *local) AcquireRead(core.LockID) {}

// Release implements core.DSM (no-op).
func (l *local) Release(core.LockID) {}

// Barrier implements core.DSM (no-op with one processor).
func (l *local) Barrier(core.BarrierID) {}

// Bind implements core.DSM (no-op).
func (l *local) Bind(core.LockID, ...mem.Range) {}

// Rebind implements core.DSM (no-op).
func (l *local) Rebind(core.LockID, ...mem.Range) {}

// Compute implements core.DSM.
func (l *local) Compute(d sim.Time) { l.clock += d }

// Now implements core.DSM.
func (l *local) Now() sim.Time { return l.clock }

// StatsBegin implements core.DSM.
func (l *local) StatsBegin() {}

// StatsEnd implements core.DSM.
func (l *local) StatsEnd() {
	l.ended = true
	l.endTime = l.clock
}

var _ core.DSM = (*local)(nil)
