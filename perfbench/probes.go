package main

import (
	"fmt"
	"time"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/lrc"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/wcollect"
	"ecvslrc/internal/wtrap"
)

// Unit-cost probes: each times one layer operation through public functions
// only, as the minimum over probeRounds rounds of the per-operation mean.

const probeRounds = 7

// unitCosts are host nanoseconds per operation.
type unitCosts struct {
	resume, timer, msg, twin, diff, access float64
}

func runProbes() (unitCosts, error) {
	var u unitCosts
	var err error
	for _, p := range []struct {
		dst *float64
		fn  func() (float64, error)
	}{
		{&u.resume, probeResume}, {&u.timer, probeTimer}, {&u.msg, probeMsg},
		{&u.twin, probeTwin}, {&u.diff, probeDiff}, {&u.access, probeAccess},
	} {
		best := 0.0
		for r := 0; r < probeRounds; r++ {
			ns, e := p.fn()
			if e != nil {
				err = e
				break
			}
			if r == 0 || ns < best {
				best = ns
			}
		}
		*p.dst = best
	}
	return u, err
}

// probeResume: two processes sleeping in alternation, so every wake-up
// resumes the other process (a goroutine handoff).
func probeResume() (float64, error) {
	const n = 20000
	s := sim.New()
	for k := 0; k < 2; k++ {
		k := k
		s.Spawn(fmt.Sprintf("probe%d", k), func(p *sim.Proc) {
			p.Sleep(sim.Time(1 + k))
			for i := 0; i < n; i++ {
				p.Sleep(2)
			}
		})
	}
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * (n + 1)), nil
}

type tick struct {
	s    *sim.Simulator
	left int
}

func (t *tick) Fire(at sim.Time) {
	if t.left--; t.left > 0 {
		t.s.ScheduleTimer(at+1, t)
	}
}

// probeTimer: one timer event that reschedules itself; no process runs.
func probeTimer() (float64, error) {
	const n = 200000
	s := sim.New()
	s.ScheduleTimer(1, &tick{s: s, left: n})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// probeMsg: one-way messages between two processors on the flat fabric,
// each a send plus its delivery to the receiver's handler.
func probeMsg() (float64, error) {
	const n = 20000
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	got := 0
	src := s.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Send(p, 1, 1, 8, fabric.Payload{A: int32(i)})
		}
	})
	dst := s.Spawn("dst", func(p *sim.Proc) {})
	net.Attach(src, func(*fabric.HandlerCtx, fabric.Msg) {})
	net.Attach(dst, func(*fabric.HandlerCtx, fabric.Msg) { got++ })
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return 0, err
	}
	el := time.Since(t0)
	if got != n {
		return 0, fmt.Errorf("fabric probe delivered %d of %d messages", got, n)
	}
	return float64(el.Nanoseconds()) / n, nil
}

// probeTwin: twin one page, write two words, compare against the twin.
func probeTwin() (float64, error) {
	const n = 20000
	im := mem.NewImage(mem.PageSize)
	pt := wtrap.NewPageTwins(im)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pt.Make(0)
		im.WriteU32(128, uint32(i)+1)
		im.WriteU32(3000, uint32(i)+1)
		if runs, _ := pt.Compare(0); len(runs) != 2 {
			return 0, fmt.Errorf("twin probe found %d runs, want 2", len(runs))
		}
		pt.Drop(0)
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// probeDiff: build the diff of two changed runs on one page and apply it to
// another image.
func probeDiff() (float64, error) {
	const n = 50000
	src := mem.NewImage(mem.PageSize)
	dst := mem.NewImage(mem.PageSize)
	changed := []mem.Range{{Base: 128, Len: 8}, {Base: 3000, Len: 4}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		src.WriteU32(128, uint32(i))
		d := wcollect.BuildDiff(src, changed)
		if w := d.Apply(dst); w != 3 {
			return 0, fmt.Errorf("diff probe applied %d words, want 3", w)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// probeAccess: shared-word reads and writes through an LRC node's
// accessors, on a page the node already holds writable.
func probeAccess() (float64, error) {
	const n = 200000
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	base := al.Alloc("probe", mem.PageSize, 4)
	impl, err := core.ParseImpl("LRC-diff")
	if err != nil {
		return 0, err
	}
	var node *lrc.Node
	var el time.Duration
	p := s.Spawn("probe", func(p *sim.Proc) {
		accessLoop(node, base, 64) // take the first faults outside the timing
		t0 := time.Now()
		accessLoop(node, base, n)
		el = time.Since(t0)
	})
	node = lrc.New(p, net, al, 1, impl)
	if err := s.Run(); err != nil {
		return 0, err
	}
	return float64(el.Nanoseconds()) / (4 * n), nil
}

// accessLoop is word-strided integer and float traffic over one page,
// generic like the application kernels so it takes their dispatch path.
func accessLoop[D core.Accessor](d D, base mem.Addr, n int) {
	for i := 0; i < n; i++ {
		a := base + mem.Addr((i&511)*4)
		d.WriteI32(a, int32(i))
		_ = d.ReadI32(a)
		f := base + mem.Addr(2048+(i&255)*8)
		d.WriteF64(f, float64(i))
		_ = d.ReadF64(f)
	}
}
