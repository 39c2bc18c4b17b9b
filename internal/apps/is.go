package apps

import (
	"fmt"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("IS", func(s Scale) run.App { return newIS(s) })
}

// Per-key CPU costs, calibrated against Table 3's 10.27 s sequential time
// for N=2^20 keys and 10 rankings.
const (
	isPerKeyCount = 400 * sim.Nanosecond
	isPerKeyRank  = 600 * sim.Nanosecond
)

// IS is the NAS Integer Sort benchmark: ranking N keys in [0, Bmax) by
// counting sort. Phase 1: each processor ranks its keys locally, then adds
// its counts into a shared bucket array under a lock (migratory data — the
// array is smaller than a page). Phase 2: each processor reads the shared
// array to compute the global ranks of its keys. Barriers separate phases.
type IS struct {
	n, bmax, rounds int
	buckets         mem.Addr
	nprocs          int
}

func newIS(s Scale) *IS {
	a := &IS{}
	switch s {
	case Test:
		a.n, a.bmax, a.rounds = 4096, 128, 3
	case Bench:
		a.n, a.bmax, a.rounds = 1<<16, 1<<9, 5
	case Large:
		// 256 keys per processor at 1024 procs; the shared bucket array is
		// the scaling stress (every processor merges all Bmax buckets).
		a.n, a.bmax, a.rounds = 1<<18, 1<<10, 3
	default: // Paper: N = 2^20, Bmax = 2^9, 10 rankings (Table 2)
		a.n, a.bmax, a.rounds = 1<<20, 1<<9, 10
	}
	return a
}

// Name implements run.App.
func (a *IS) Name() string { return "IS" }

// Layout implements run.App. The bucket array (2 KB at paper scale) is the
// only shared data: "the size of the shared array is less than a page".
func (a *IS) Layout(al *mem.Allocator) {
	a.buckets = al.Alloc("buckets", a.bmax*4, 4)
}

// Init implements run.App.
func (a *IS) Init(im *mem.Image) {}

// InitRef implements run.RefInit (Init is stateless).
func (a *IS) InitRef() {}

// keys regenerates processor p's deterministic key set.
func (a *IS) keys(p, nprocs int) []int {
	lo, hi := band(a.n, nprocs, p)
	rng := newLCG(uint64(1000 + p))
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = rng.intn(a.bmax)
	}
	return out
}

const isLock = core.LockID(1)

// Program implements run.App.
func (a *IS) Program(d core.DSM) {
	ec := d.Model() == core.EC
	a.nprocs = d.NProcs()
	d.Bind(isLock, mem.Range{Base: a.buckets, Len: a.bmax * 4})
	keys := a.keys(d.Proc(), d.NProcs())

	for r := 0; r < a.rounds; r++ {
		// Phase 1: local ranking, then merge into the shared array.
		local := make([]int32, a.bmax)
		for _, k := range keys {
			local[k]++
		}
		d.Compute(sim.Time(len(keys)) * isPerKeyCount)

		d.Acquire(isLock)
		snapshot := make([]int32, a.bmax)
		for b := 0; b < a.bmax; b++ {
			addr := a.buckets + mem.Addr(4*b)
			v := d.ReadI32(addr) + local[b]
			snapshot[b] = v
			d.WriteI32(addr, v)
		}
		d.Compute(sim.Time(a.bmax) * 200 * sim.Nanosecond)
		d.Release(isLock)
		d.Barrier(0)

		// Phase 2: read the final counts and rank the local keys.
		if ec {
			d.AcquireRead(isLock)
		}
		var checksum int64
		for b := 0; b < a.bmax; b++ {
			checksum += int64(d.ReadI32(a.buckets + mem.Addr(4*b)))
		}
		_ = checksum
		d.Compute(sim.Time(len(keys)) * isPerKeyRank)
		if ec {
			d.Release(isLock)
		}
		d.Barrier(1)
	}
	d.StatsEnd()

	// Gather for verification.
	if d.Proc() == 0 {
		if ec {
			d.AcquireRead(isLock)
		}
		for b := 0; b < a.bmax; b++ {
			_ = d.ReadI32(a.buckets + mem.Addr(4*b))
		}
		if ec {
			d.Release(isLock)
		}
	}
}

// Verify implements run.App: the shared buckets accumulate rounds×histogram.
func (a *IS) Verify(im *mem.Image) error {
	want := make([]int32, a.bmax)
	for p := 0; p < a.nprocs; p++ {
		for _, k := range a.keys(p, a.nprocs) {
			want[k] += int32(a.rounds)
		}
	}
	for b := 0; b < a.bmax; b++ {
		if got := im.ReadI32(a.buckets + mem.Addr(4*b)); got != want[b] {
			return fmt.Errorf("IS: bucket[%d] = %d, want %d", b, got, want[b])
		}
	}
	return nil
}
