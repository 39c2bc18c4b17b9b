// Notice-history garbage collection: the real TreadMarks scaling problem.
// Without it every node's interval records and every writer's diff store grow
// without bound — O(intervals x procs) memory per node, which is what stops a
// 1996 protocol at 8 processors from becoming a 1024-processor machine.
//
// The collector is simulator-omniscient: it runs at the barrier quiescent
// point (the end of PrepareDepartures at the managing node), when every
// processor is provably blocked at the same barrier. At that instant no
// record-carrying message is in flight — lock grants and fetch replies go to
// blocked-waiting processors whose requests were already consumed, and the
// barrier departures have not been made yet — so global state is stable and
// an exact kill floor can be computed instead of TreadMarks' heuristics.
// Collection does zero protocol work: no messages, no simulated time, no
// cost-model charges. Equivalence (identical core.Stats and final memory
// images with GC on vs off) is pinned by TestNoticeGCEquivalence.
//
// Keying rule. Retained state is consulted by exactly three futures, and
// each gets its own floor:
//
//   - Interval records at node y serve two purposes: forwarding to peers
//     (collectNotices sends only records past the requester's vector, and
//     every vector is at least minVec[q] = min over nodes of vec[q]), and
//     happens-before ordering of y's OWN access misses (accessMiss resolves
//     the vector of record (q,j) only for j inside one of y's pending fetch
//     windows (applied, noticed]). So records of writer q at node y are
//     dead up to recFloor_y[q] = min(minVec[q], min applied over y's own
//     pending windows for q); for y == q additionally capped by
//     lastBarrierSent, since q's next barrier arrival re-sends its own
//     records past that mark. Re-absorption of a pruned record is
//     impossible — a node's vector covers every record it ever absorbed,
//     so peers never resend them (the violation counter enforces this).
//
//   - Diffs live at their writer and are served only to fetch windows on
//     one page. A node with a window (applied, noticed] never asks below
//     applied; a node with NO window for (pg, q) may later gain one whose
//     applied is 0 (a cold reader must reconstruct the page from the
//     initial image), so it pins the page's diffs entirely. Hence
//     diffFloor_q[pg] = min over all other nodes of their applied on
//     (pg, q), with absent windows counting as 0, capped one below a
//     pending (closed-but-unharvested) interval on the page so a lazy
//     harvest cannot append below the pruned line.
//
// Cold windows — notices held for pages a node never reads — therefore pin
// exactly the history a future read would need, and nothing else. That is
// the honest shape of the problem: real TreadMarks GC VALIDATES pages (real
// traffic) to drain those windows, which an equivalence-preserving collector
// must not do. Workloads whose windows drain (migratory, producer-consumer,
// all-read epochs: Water, QS, the micros) get bounded history; broadcast-
// invalidate workloads with unread pages (SOR's distant interior rows) keep
// theirs, measured in EXPERIMENTS.md.
package lrc

import "fmt"

// GC is a shared notice-history collector across the nodes of one run.
// Attach with NewGC before the simulation starts; it fires once per barrier.
type GC struct {
	nodes  []*Node
	minVec []int32 // scratch: min over nodes of vec[q]
	report GCReport
}

// GCReport summarizes a run's collections. It is host-side observability
// only and never feeds back into simulated cost or core.Stats.
type GCReport struct {
	Collections   int        // barrier-quiescence collection passes
	RecordsPruned int64      // interval records dropped across all nodes
	DiffsPruned   int64      // stored diffs dropped at their writers
	Violations    int64      // floor-soundness violations (must stay 0)
	Samples       []GCSample // notice-history footprint around each pass
}

// GCSample is the machine-wide notice-history footprint in bytes immediately
// before and after one collection pass.
type GCSample struct {
	Before int64
	After  int64
}

// NewGC wires a collector into every node of a run. All nodes must belong to
// the same simulation; the collector fires at each barrier's managing node.
func NewGC(nodes []*Node) *GC {
	if len(nodes) == 0 {
		return nil
	}
	nprocs := nodes[0].Base.NProcs
	g := &GC{nodes: nodes, minVec: make([]int32, nprocs)}
	for _, n := range nodes {
		n.gc = g
		n.recFloor = make([]int32, nprocs)
		n.diffFloor = make(map[int]int32)
	}
	return g
}

// Report returns the accumulated collection report.
func (g *GC) Report() GCReport { return g.report }

// NoticeBytes returns the machine-wide notice-history footprint: the wire
// size of every retained interval record on every node plus every stored
// diff at its writer. This is the quantity GC bounds. It is wire bytes, not
// host memory: a record shared by many nodes is held once but counted once
// per holder.
func (g *GC) NoticeBytes() int64 {
	var b int64
	for _, n := range g.nodes {
		b += n.NoticeHistoryBytes()
	}
	return b
}

// NoticeHistoryBytes is one node's share of the notice-history footprint:
// retained interval records plus the node's own stored diffs, in wire bytes.
// The runner reports the machine-wide sum so GC-off and GC-on footprints
// compare directly. Interval records are shared in host memory (absorb keeps
// the sender's pointer), so the sum counts each record once per node that
// holds it and is not a measure of host memory.
func (n *Node) NoticeHistoryBytes() int64 {
	var b int64
	for _, recs := range n.records {
		for _, r := range recs {
			b += int64(r.wireSize())
		}
	}
	for _, ds := range n.diffStore {
		for _, idf := range ds {
			b += int64(idf.Diff.WireSize())
		}
	}
	return b
}

const gcMaxIdx = int32(1<<31 - 1)

// collect runs one collection pass at the barrier quiescent point.
func (g *GC) collect() {
	before := g.NoticeBytes()

	// minVec[q]: the lowest interval of q any node's vector still misses.
	// No future grant or departure ships records at or below it.
	for q := range g.minVec {
		g.minVec[q] = gcMaxIdx
	}
	for _, n := range g.nodes {
		for q, v := range n.vec {
			if v < g.minVec[q] {
				g.minVec[q] = v
			}
		}
	}

	// Per-node record floors and pruning.
	for _, n := range g.nodes {
		self := n.P.ID()
		for q := range n.recFloor {
			n.recFloor[q] = g.minVec[q]
		}
		if n.lastBarrierSent < n.recFloor[self] {
			n.recFloor[self] = n.lastBarrierSent
		}
		for _, pm := range n.meta {
			if pm == nil {
				continue
			}
			for _, w := range pm.writers {
				if w.noticed > w.applied && w.applied < n.recFloor[w.proc] {
					n.recFloor[w.proc] = w.applied
				}
			}
		}
		for q := range n.records {
			recs := n.records[q]
			cut := 0
			for cut < len(recs) && recs[cut].idx <= n.recFloor[q] {
				cut++
			}
			if cut == 0 {
				continue
			}
			g.report.RecordsPruned += int64(cut)
			// Shift down in place and nil the tail so the pruned records are
			// unreachable; the backing array stays at its high-water mark,
			// which collection bounds across barriers.
			k := copy(recs, recs[cut:])
			for j := k; j < len(recs); j++ {
				recs[j] = nil
			}
			n.records[q] = recs[:k]
		}
	}

	// Per-(writer, page) diff floors and pruning.
	for _, n := range g.nodes {
		self := int32(n.P.ID())
		for pg, ds := range n.diffStore {
			floor := gcMaxIdx
			for _, x := range g.nodes {
				if x == n {
					continue
				}
				pm := x.meta[pg]
				var w *writerWindow
				if pm != nil {
					w = pm.find(self)
				}
				if w == nil {
					// A cold reader reconstructs the page from the initial
					// image: a future window here starts at applied 0 and
					// pins the page's whole diff history.
					floor = 0
					break
				}
				if w.applied < floor {
					floor = w.applied
				}
			}
			if pm := n.meta[pg]; pm != nil && pm.closedIval >= 0 && pm.closedIval-1 < floor {
				floor = pm.closedIval - 1
			}
			if floor <= 0 {
				continue
			}
			if floor > n.diffFloor[pg] {
				n.diffFloor[pg] = floor
			}
			kept := ds[:0]
			for _, idf := range ds {
				if idf.Ival > floor {
					kept = append(kept, idf)
				} else {
					g.report.DiffsPruned++
				}
			}
			for j := len(kept); j < len(ds); j++ {
				ds[j] = ivalDiff{}
			}
			if len(kept) < len(ds) {
				n.diffStore[pg] = kept
			}
		}
	}

	g.report.Collections++
	g.report.Samples = append(g.report.Samples, GCSample{Before: before, After: g.NoticeBytes()})
	if Trace {
		fmt.Printf("    [gc] pass %d minVec=%v pruned rec=%d diff=%d bytes %d->%d\n",
			g.report.Collections, g.minVec, g.report.RecordsPruned, g.report.DiffsPruned,
			before, g.NoticeBytes())
	}
}
