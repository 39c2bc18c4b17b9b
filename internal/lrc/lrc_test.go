package lrc

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/vm"
)

func newTestNode(t *testing.T, impl core.Impl, body func(n *Node)) {
	t.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("data", 4*mem.PageSize, 4)
	var n *Node
	p := s.Spawn("p0", func(p *sim.Proc) { body(n) })
	n = New(p, net, al, 1, impl)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func diffImpl() core.Impl {
	return core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
}

func TestNewRejectsBadImpl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for EC impl passed to lrc.New")
		}
	}()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("x", 64, 4)
	p := s.Spawn("p", func(p *sim.Proc) {})
	New(p, net, al, 1, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs})
}

func TestTwinningStartsWriteProtected(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		for pg := 0; pg < n.MMU.Pages(); pg++ {
			if n.MMU.Prot(pg) != vm.ReadOnly {
				t.Fatalf("page %d prot = %v, want ro", pg, n.MMU.Prot(pg))
			}
		}
		n.WriteI32(0, 1) // first write must twin via a fault
		if n.MMU.Faults() != 1 || !n.twins.Has(0) {
			t.Errorf("faults=%d twinned=%v", n.MMU.Faults(), n.twins.Has(0))
		}
	})
}

func TestCompilerInstrNoProtection(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.LRC, Trap: core.CompilerInstr, Collect: core.Timestamps}, func(n *Node) {
		n.WriteI32(0, 1)
		if n.MMU.Faults() != 0 {
			t.Errorf("faults = %d, want 0 under instrumentation", n.MMU.Faults())
		}
		if got := n.db.DirtyPages(); len(got) != 1 || got[0] != 0 {
			t.Errorf("dirty pages = %v", got)
		}
	})
}

func TestCloseIntervalRecordsNotices(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 1)
		n.WriteI32(2*mem.PageSize, 2)
		work := n.closeInterval()
		if work <= 0 {
			t.Error("closing a dirty interval should cost time")
		}
		recs := n.records[0]
		if len(recs) != 1 || recs[0].idx != 1 {
			t.Fatalf("records = %+v", recs)
		}
		if len(recs[0].pages) != 2 {
			t.Errorf("pages = %v, want 2 pages", recs[0].pages)
		}
		if n.vec[0] != 1 || n.cur != 2 {
			t.Errorf("vec=%v cur=%d", n.vec, n.cur)
		}
		// Empty close: no new record.
		n.closeInterval()
		if len(n.records[0]) != 1 {
			t.Error("empty interval must not produce a record")
		}
	})
}

func TestLazyDiffCreatedAtHarvest(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 42)
		n.closeInterval()
		if len(n.diffStore[0]) != 0 {
			t.Error("diff must not exist before harvest (lazy diffing)")
		}
		n.harvestPage(0)
		ds := n.diffStore[0]
		if len(ds) != 1 || ds[0].Ival != 1 || ds[0].Diff.Words() != 1 {
			t.Errorf("diffStore = %+v", ds)
		}
		if n.twins.Has(0) {
			t.Error("twin must be dropped after harvest")
		}
	})
}

func TestRewriteForcesHarvestOfClosedInterval(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 1)
		n.closeInterval()
		n.WriteI32(4, 2) // fault: must harvest interval 1 first, then retwin
		if len(n.diffStore[0]) != 1 {
			t.Fatalf("diffStore = %+v", n.diffStore[0])
		}
		if d := n.diffStore[0][0].Diff; d.Words() != 1 || d.Runs[0].Base != 0 {
			t.Errorf("interval-1 diff = %+v (must contain only the first write)", d)
		}
	})
}

func TestIntervalWireSize(t *testing.T) {
	iv := &interval{proc: 1, idx: 3, vec: make([]int32, 8), pages: []int{1, 2, 3}}
	if got := iv.wireSize(); got != 8+32+12 {
		t.Errorf("wireSize = %d", got)
	}
}

func TestIntervalBefore(t *testing.T) {
	// rec(1,2) closed having seen interval 5 of processor 0.
	vec := []int32{5, 1}
	if !happenedBefore(vec, 0, 5) {
		t.Error("(0,5) precedes (1,2): rec(1,2).vec[0]=5 covers it")
	}
	if !happenedBefore(vec, 0, 4) {
		t.Error("(0,4) precedes (1,2): covered intervals stay covered")
	}
	if happenedBefore(vec, 0, 6) {
		t.Error("(0,6) is not covered by rec(1,2)")
	}
	if happenedBefore(nil, 0, 1) {
		t.Error("unknown record: incomparable")
	}
	// Same-processor intervals are ordered by index: the merge keeps each
	// writer's units as a chain sorted by interval.
	o := &missOrder{}
	o.writer(1)
	o.units = append(o.units, applyUnit{proc: 1, ival: 2}, applyUnit{proc: 1, ival: 1})
	if got := o.merge(); len(got) != 2 || o.units[got[0]].ival != 1 || o.units[got[1]].ival != 2 {
		t.Errorf("chain order = %v over %+v", got, o.units)
	}
}

func TestCollectNoticesHonoursPeerVector(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 1)
		n.closeInterval()
		n.WriteI32(0, 2)
		n.closeInterval()
		recs, size := n.collectNotices([]int32{1})
		if len(recs) != 1 || recs[0].idx != 2 {
			t.Errorf("records = %+v", recs)
		}
		if size != recs[0].wireSize() {
			t.Errorf("size = %d", size)
		}
		recs, _ = n.collectNotices([]int32{2})
		if len(recs) != 0 {
			t.Errorf("up-to-date peer got %+v", recs)
		}
	})
}

func TestRecordLookupsAtTheTail(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.records[0] = []*interval{{idx: 1}, {idx: 3}}
		for idx, want := range map[int32]bool{0: false, 1: true, 2: false, 3: true, 4: false} {
			if got := n.hasRecord(0, idx); got != want {
				t.Errorf("hasRecord(0, %d) = %v, want %v", idx, got, want)
			}
		}
		for bound, want := range map[int32]int{0: 2, 1: 1, 2: 1, 3: 0, 9: 0} {
			if got := n.recordsAfter(0, bound); len(got) != want {
				t.Errorf("recordsAfter(0, %d) = %d records, want %d", bound, len(got), want)
			}
		}
		n.records[0] = nil
		if n.hasRecord(0, 1) || len(n.recordsAfter(0, 0)) != 0 {
			t.Error("a writer with no records has none to find")
		}
	})
}
