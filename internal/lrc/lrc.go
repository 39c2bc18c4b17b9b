// Package lrc implements lazy release consistency (Section 3.2), the model
// used by TreadMarks: execution is divided into intervals, modifications are
// summarized as per-page write notices ordered by interval vectors, and an
// invalidate protocol propagates data lazily — a page access miss fetches
// diffs (or timestamp-selected words) from the writers. Multiple concurrent
// writers per page are supported, so there is no ping-pong effect under
// false sharing (Section 7.1).
package lrc

import (
	"fmt"
	"sort"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/nodebase"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
	"ecvslrc/internal/vm"
	"ecvslrc/internal/wcollect"
	"ecvslrc/internal/wtrap"
)

// Trace enables protocol-level debug output (tests only).
var Trace = false

// Message kinds beyond the shared synchronization managers'.
const (
	kindFetchReq = 10 + iota
	kindFetchReply
)

// interval is a closed execution interval of one processor: the unit the
// write notices name. The vector captures the intervals of every other
// processor that happened before this one.
type interval struct {
	proc  int
	idx   int32
	vec   []int32
	pages []int
}

// wireSize is the cost of shipping this interval's write notices: interval
// identity, its vector, and one notice per page.
func (iv *interval) wireSize() int {
	return 8 + 4*len(iv.vec) + 4*len(iv.pages)
}

// writerWindow is one remote writer's notice state on a page: noticed is the
// highest interval index of that writer named by a write notice here, applied
// the highest whose modifications are installed locally. The page's pending
// fetch window is (applied, noticed].
type writerWindow struct {
	proc    int32
	noticed int32
	applied int32
}

// pageMeta is the per-page protocol state of one processor. The writer
// windows are a sparse slice sorted by processor: a page has a window only
// for processors that actually sent a write notice naming it, so per-page
// state is O(writers of that page), not O(procs) — at 1024 processors a
// dense per-page array would multiply out to gigabytes across the machine
// (pages x procs x nodes), while real pages have a handful of writers.
type pageMeta struct {
	writers []writerWindow // sorted by proc
	// closedIval is this processor's own closed-but-unharvested interval
	// that modified the page (-1 if none); the twin is kept for lazy diff
	// creation until someone asks or a conflicting event forces it.
	closedIval int32
}

func newPageMeta() *pageMeta { return &pageMeta{closedIval: -1} }

// window returns the writer window for proc, inserting a zero window in
// sorted position if the page has none yet.
func (pm *pageMeta) window(proc int32) *writerWindow {
	i := sort.Search(len(pm.writers), func(i int) bool { return pm.writers[i].proc >= proc })
	if i < len(pm.writers) && pm.writers[i].proc == proc {
		return &pm.writers[i]
	}
	pm.writers = append(pm.writers, writerWindow{})
	copy(pm.writers[i+1:], pm.writers[i:])
	pm.writers[i] = writerWindow{proc: proc}
	return &pm.writers[i]
}

// find returns the window for proc, or nil if the page has none.
func (pm *pageMeta) find(proc int32) *writerWindow {
	i := sort.Search(len(pm.writers), func(i int) bool { return pm.writers[i].proc >= proc })
	if i < len(pm.writers) && pm.writers[i].proc == proc {
		return &pm.writers[i]
	}
	return nil
}

type ivalDiff struct {
	Ival int32
	Diff *wcollect.Diff
}

// Fetch-request slot conventions (PayloadPageReq): A is the page, B the
// highest interval of the responder already applied locally, and C bounds
// the reply to intervals the requester holds write notices for —
// modifications from the responder's later intervals have not been
// "released" to the requester yet and must not travel early.

// pageReply is the typed Body of a kindFetchReply message.
type pageReply struct {
	Diffs   []ivalDiff           // Diffs collection
	Stamped wcollect.StampedData // Timestamps collection
}

// BodyKind implements fabric.Body.
func (*pageReply) BodyKind() fabric.PayloadKind { return fabric.PayloadPageReply }

// noticeBody is the write-notice set riding with lock grants, barrier
// arrivals and barrier departures: the interval records the receiver's
// vector does not cover. The sender's vector travels in the payload's Vec
// slot alongside it.
type noticeBody struct {
	records []*interval
	// minVec rides only on tree fan-in subtree arrivals: the elementwise
	// minimum vector over the subtree's members. The parent keys each
	// member-covering departure to it, while the payload Vec slot carries
	// the elementwise maximum for vector merging.
	minVec []int32
}

// BodyKind implements fabric.Body.
func (*noticeBody) BodyKind() fabric.PayloadKind { return fabric.PayloadNoticeSet }

// pendingWriter is one processor with unfetched write notices for a page.
type pendingWriter struct {
	proc  int
	since int32
	upTo  int32
}

// Node is one processor's LRC engine. It implements core.DSM.
type Node struct {
	nodebase.Base
	impl core.Impl

	locks *syncmgr.LockMgr
	bars  *syncmgr.BarrierMgr

	cur     int32 // index of the currently open interval
	vec     []int32
	records [][]*interval // per processor, its known closed intervals in idx order

	meta      []*pageMeta // indexed by page, nil until first touched
	openPages []int       // pages modified in the open interval (twinning), in fault order

	// diffStore holds this processor's own harvested diffs: page -> diffs
	// in interval order (Diffs collection).
	diffStore map[int][]ivalDiff

	stamps *wcollect.Stamps // Timestamps collection

	db    *wtrap.DirtyBits // CompilerInstr trapping
	twins *wtrap.PageTwins // Twinning

	// barrier bookkeeping
	lastBarrierSent int32               // own interval records up to this index were pushed at a barrier
	arrivalVecs     map[int][]int32     // manager: vector received from each arriver
	arrivalRecs     map[int][]*interval // manager: buffered records, absorbed at departure
	arrivalMins     map[int][]int32     // tree fan-in: subtree min vector per child arrival

	// accessMiss scratch, reused across misses; the ordering scratch is
	// pooled (see missOrder).
	missWriters []pendingWriter
	missWaiters []*sim.Waiter
	missReplies []*pageReply

	gc        *GC           // shared notice-history collector, nil when GC is off
	recFloor  []int32       // per-writer record kill floor at this node (GC only)
	diffFloor map[int]int32 // per-page diff kill floor at this writer (GC only)
}

// New builds the LRC node for processor p with a zeroed private image.
// impl.Model must be core.LRC.
func New(p *sim.Proc, net *fabric.Network, al *mem.Allocator, nprocs int, impl core.Impl) *Node {
	return NewWithImage(p, net, al, nprocs, impl, mem.NewImage(al.Size()))
}

// NewWithImage is New with a caller-provided (possibly recycled) image; the
// caller must overwrite it in full before the simulation starts.
func NewWithImage(p *sim.Proc, net *fabric.Network, al *mem.Allocator, nprocs int, impl core.Impl, im *mem.Image) *Node {
	if impl.Model != core.LRC || !impl.Valid() {
		panic(fmt.Sprintf("lrc: bad implementation %v", impl))
	}
	n := &Node{
		impl:        impl,
		cur:         1,
		vec:         make([]int32, nprocs),
		records:     make([][]*interval, nprocs),
		meta:        make([]*pageMeta, al.Pages()),
		diffStore:   make(map[int][]ivalDiff),
		arrivalVecs: make(map[int][]int32),
		arrivalRecs: make(map[int][]*interval),
	}
	// vec[q] is the highest CLOSED interval of q whose write notices this
	// node holds; the open interval (index cur) is not covered until it
	// closes. Initially nothing is closed anywhere.
	n.InitWithImage(p, net, al, core.LRC, nprocs, im)
	n.locks = syncmgr.NewLockMgr(p, net, nprocs, (*lockHooks)(n), &n.Cnt)
	n.bars = syncmgr.NewBarrierMgr(p, net, nprocs, (*barrierHooks)(n), &n.Cnt)

	if impl.Collect == core.Timestamps {
		n.stamps = wcollect.NewStamps(al)
	}
	switch impl.Trap {
	case core.CompilerInstr:
		// Hierarchical dirty bits: page-level bits narrow the collection
		// scan because there is no lock/data association (Section 4.1).
		n.db = wtrap.NewDirtyBits(al, true)
		// Setting both the word- and page-level bits costs more than EC's
		// flat scheme (Section 8.1).
		n.SetTrap(n.db, n.CM.InstrStoreOpt+n.CM.InstrStoreOpt/2)
	case core.Twinning:
		n.twins = wtrap.NewPageTwins(n.Im)
		// All shared pages start write-protected so first writes twin.
		for pg := 0; pg < al.Pages(); pg++ {
			n.MMU.SetProt(pg, vm.ReadOnly)
		}
	}
	n.MMU.SetHandler(n.onFault)
	net.Attach(p, n.handle)
	return n
}

// Impl returns the implementation configuration.
func (n *Node) Impl() core.Impl { return n.impl }

// SetTracer attaches the event tracer to this node and its sub-machinery:
// fault, miss, twin, collect and apply events plus the lock and barrier
// manager taps. Tracing is observation-only; call before the run starts.
func (n *Node) SetTracer(tr *trace.Tracer) {
	n.AttachTracer(tr)
	n.locks.SetTracer(tr)
	n.bars.SetTracer(tr)
	if n.twins != nil {
		n.twins.OnMake = func(pg int) {
			tr.Twin(n.P.Now(), n.P.ID(), trace.DomainPage, pg)
		}
	}
}

// NProcs implements core.DSM.
func (n *Node) NProcs() int { return n.Base.NProcs }

// Model implements core.DSM.
func (n *Node) Model() core.Model { return core.LRC }

// Bind implements core.DSM: LRC has no lock/data association; no-op.
func (n *Node) Bind(l core.LockID, rs ...mem.Range) {}

// Rebind implements core.DSM: no-op under LRC.
func (n *Node) Rebind(l core.LockID, rs ...mem.Range) {}

// Acquire implements core.DSM.
func (n *Node) Acquire(l core.LockID) {
	n.Flush()
	// An acquire begins a new interval (Section 5.1).
	cwork := n.closeInterval()
	n.Tr.Work(n.P.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjNone, -1, cwork)
	n.Charge(cwork)
	n.Flush()
	n.locks.Acquire(l, syncmgr.Exclusive)
}

// AcquireRead implements core.DSM: LRC provides exclusive locks only; the
// paper's LRC programs never need read-only locks (Section 3.2).
func (n *Node) AcquireRead(l core.LockID) { n.Acquire(l) }

// AcquireForRebind implements core.DSM: LRC has no lock/data association,
// so this is an ordinary acquire.
func (n *Node) AcquireForRebind(l core.LockID) { n.Acquire(l) }

// Release implements core.DSM. Consistency actions are lazy: the interval is
// closed when the next acquirer's request arrives.
func (n *Node) Release(l core.LockID) {
	n.Flush()
	n.locks.Release(l)
}

// Barrier implements core.DSM.
func (n *Node) Barrier(b core.BarrierID) {
	n.Flush()
	n.bars.Wait(b)
}

// handle dispatches incoming protocol messages. Like syncmgr's handlers,
// these assume exactly-once in-order delivery (see the syncmgr package doc);
// under a fault plan the fabric's reliable sublayer restores that guarantee.
// handleFetch in particular is not idempotent: a replayed fetch request
// would charge the owner's CPU and the link twice for the same page.
func (n *Node) handle(hc *fabric.HandlerCtx, m fabric.Msg) {
	if n.locks.Handle(hc, m) || n.bars.Handle(hc, m) {
		return
	}
	if m.Kind == kindFetchReq {
		n.handleFetch(hc, m)
		return
	}
	panic(fmt.Sprintf("lrc: unhandled message kind %d", m.Kind))
}

func (n *Node) pageMeta(pg int) *pageMeta {
	pm := n.meta[pg]
	if pm == nil {
		pm = newPageMeta()
		n.meta[pg] = pm
	}
	return pm
}

// --- interval management -------------------------------------------------

// closeInterval ends the open interval if it modified anything: it records
// the write notices and prepares the modified pages for collection. Returns
// the CPU cost.
func (n *Node) closeInterval() sim.Time {
	var pages []int
	var work sim.Time
	self := n.P.ID()

	switch n.impl.Trap {
	case core.CompilerInstr:
		pages = n.db.DirtyPages()
		for _, pg := range pages {
			// Hierarchical collection: scan word bits of dirty pages only,
			// stamping the modified blocks now (ci implies timestamps).
			runs, scanned := n.db.CollectPage(pg)
			work += sim.Time(scanned) * n.CM.WordScan
			n.stamps.Set(runs, wcollect.LRCStamp(self, int(n.cur)))
			if n.Tr != nil {
				n.Tr.Collect(n.P.Now(), self, trace.DomainPage, pg, int(n.cur), rangeWords(runs))
			}
			n.db.ResetPage(pg)
		}
	case core.Twinning:
		// openPages holds each page once (a page write-faults at most once
		// per interval); ownership of the slice moves to the interval record.
		pages = n.openPages
		n.openPages = nil
		sort.Ints(pages)
		for _, pg := range pages {
			pm := n.pageMeta(pg)
			if pm.closedIval >= 0 {
				panic("lrc: open and closed twin on one page")
			}
			pm.closedIval = n.cur
			// Re-protect so the next write starts a fresh epoch; the twin
			// stays for lazy diff creation.
			n.MMU.SetProt(pg, vm.ReadOnly)
			work += n.CM.MProtect
		}
	}

	if len(pages) == 0 {
		return work
	}
	vec := make([]int32, len(n.vec))
	copy(vec, n.vec)
	rec := &interval{proc: self, idx: n.cur, vec: vec, pages: pages}
	n.records[self] = append(n.records[self], rec)
	n.vec[self] = n.cur
	n.cur++
	return work
}

// harvestPage forces collection of this processor's closed-but-unharvested
// modifications to page pg (lazy diffing's deferred work). Returns CPU cost.
func (n *Node) harvestPage(pg int) sim.Time {
	pm := n.pageMeta(pg)
	if pm.closedIval < 0 {
		return 0
	}
	ival := pm.closedIval
	pm.closedIval = -1
	if n.impl.Trap != core.Twinning {
		return 0 // compiler instrumentation stamps at interval close
	}
	runs, cmp := n.twins.Compare(pg)
	n.twins.Drop(pg)
	work := sim.Time(cmp) * n.CM.WordCompare
	switch n.impl.Collect {
	case core.Timestamps:
		n.stamps.Set(runs, wcollect.LRCStamp(n.P.ID(), int(ival)))
	case core.Diffs:
		d := wcollect.BuildDiff(n.Im, runs)
		n.diffStore[pg] = append(n.diffStore[pg], ivalDiff{Ival: ival, Diff: d})
		n.Extra.DiffsCreated++
		work += sim.Time(d.Words()) * n.CM.WordCopy
	}
	if n.Tr != nil {
		n.Tr.Collect(n.P.Now(), n.P.ID(), trace.DomainPage, pg, int(ival), rangeWords(runs))
	}
	return work
}

// rangeWords sums the word count of changed ranges (trace attribution only).
func rangeWords(rs []mem.Range) int {
	words := 0
	for _, r := range rs {
		words += r.Words()
	}
	return words
}

// --- write notice application --------------------------------------------

// absorb installs a batch of interval records received with a grant or a
// barrier departure: it saves them, invalidates the named pages, and merges
// the sender's vector. Records for intervals already covered are skipped.
func (n *Node) absorb(records []*interval, senderVec []int32) sim.Time {
	var work sim.Time
	self := n.P.ID()
	// Apply in (proc, idx) order so per-processor record lists stay sorted.
	sorted := make([]*interval, len(records))
	copy(sorted, records)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].proc != sorted[j].proc {
			return sorted[i].proc < sorted[j].proc
		}
		return sorted[i].idx < sorted[j].idx
	})
	for _, rec := range sorted {
		if rec.proc == self || n.hasRecord(rec.proc, rec.idx) {
			continue
		}
		if n.recFloor != nil && rec.idx <= n.recFloor[rec.proc] {
			// A collected interval must never come back: its diffs are gone.
			// The floor proof says this cannot happen; count it if it does.
			n.gc.report.Violations++
			continue
		}
		n.records[rec.proc] = append(n.records[rec.proc], rec)
		for _, pg := range rec.pages {
			pm := n.pageMeta(pg)
			if w := pm.window(int32(rec.proc)); w.noticed < rec.idx {
				w.noticed = rec.idx
			}
			// A write notice for a page we have pending modifications on
			// forces the diff/stamps out of the twin first, so the twin
			// comparison never sees the other writers' data.
			work += n.harvestPage(pg)
			if n.MMU.Prot(pg) != vm.NoAccess {
				n.MMU.SetProt(pg, vm.NoAccess)
				work += n.CM.MProtect
			}
		}
	}
	if senderVec != nil {
		for q := range n.vec {
			if q != self && senderVec[q] > n.vec[q] {
				n.vec[q] = senderVec[q]
			}
		}
	}
	return work
}

// hasRecord reports whether this node holds record (proc, idx). An index
// past the last record, the common case for fresh notices, answers at once.
func (n *Node) hasRecord(proc int, idx int32) bool {
	recs := n.records[proc]
	if len(recs) == 0 || idx > recs[len(recs)-1].idx {
		return false
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].idx >= idx })
	return i < len(recs) && recs[i].idx == idx
}

func (n *Node) record(proc int, idx int32) *interval {
	recs := n.records[proc]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].idx >= idx })
	if i < len(recs) && recs[i].idx == idx {
		return recs[i]
	}
	return nil
}

// recordsAfter returns the records of q with index beyond bound. A bound at
// or past the last record, the common case for an up-to-date peer, answers
// at once.
func (n *Node) recordsAfter(q int, bound int32) []*interval {
	recs := n.records[q]
	if len(recs) == 0 || bound >= recs[len(recs)-1].idx {
		return recs[len(recs):]
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].idx > bound })
	return recs[i:]
}

// collectNotices gathers every record this node knows that the peer's
// vector does not cover.
func (n *Node) collectNotices(peerVec []int32) (out []*interval, size int) {
	for q := 0; q < n.Base.NProcs; q++ {
		for _, rec := range n.recordsAfter(q, peerVec[q]) {
			out = append(out, rec)
			size += rec.wireSize()
		}
	}
	return out, size
}

// --- fault handling and data fetch ----------------------------------------

func (n *Node) onFault(a mem.Addr, write bool) {
	pg := mem.PageOf(a)
	switch n.MMU.Prot(pg) {
	case vm.NoAccess:
		n.accessMiss(pg, write)
	case vm.ReadOnly:
		if !write {
			panic("lrc: read fault on readable page")
		}
		n.writeTwinFault(pg)
	default:
		panic("lrc: fault on accessible page")
	}
}

// writeTwinFault handles the first write to a clean page under twinning.
func (n *Node) writeTwinFault(pg int) {
	// If a closed interval's twin is still pending for this page, its diff
	// must be extracted before re-twinning for the new interval.
	hwork := n.harvestPage(pg)
	twork := n.CM.ProtFault + mem.PageWords*n.CM.WordCopy + n.CM.MProtect
	n.Tr.Work(n.P.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, hwork+twork)
	n.Charge(hwork)
	n.Charge(twork)
	n.twins.Make(pg)
	n.Extra.TwinsMade++
	n.openPages = append(n.openPages, pg)
	n.MMU.SetProt(pg, vm.ReadWrite)
}

// accessMiss resolves an invalid page: fetch the missing modifications from
// every writer with outstanding write notices, apply them in happens-before
// order, and re-validate the page.
func (n *Node) accessMiss(pg int, write bool) {
	n.Extra.AccessMisses++
	n.Tr.Work(n.P.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, n.CM.ProtFault)
	n.Charge(n.CM.ProtFault)
	n.Flush()
	pm := n.pageMeta(pg)

	writers := n.missWriters[:0]
	for _, w := range pm.writers { // ascending proc order: the slice is sorted
		if w.noticed > w.applied {
			writers = append(writers, pendingWriter{proc: int(w.proc), since: w.applied, upTo: w.noticed})
		}
	}
	n.missWriters = writers[:0]
	if len(writers) == 0 {
		panic(fmt.Sprintf("lrc: proc %d: invalid page %d with no pending notices", n.P.ID(), pg))
	}
	n.Tr.Miss(n.P.Now(), n.P.ID(), pg, len(writers), write)
	if Trace {
		fmt.Printf("    [lrc] t=%v p%d miss pg%d writers=%+v windows=%+v\n",
			n.P.Now(), n.P.ID(), pg, writers, pm.writers)
	}

	// Parallel requests, as TreadMarks issues its diff requests.
	waiters := n.missWaiters[:0]
	for _, w := range writers {
		req := fabric.Payload{Kind: fabric.PayloadPageReq, A: int32(pg), B: w.since, C: w.upTo}
		waiters = append(waiters, n.Net.CallAsync(n.P, w.proc, kindFetchReq, 12, req))
	}
	replies := n.missReplies[:0]
	for _, w := range waiters {
		reply := n.Net.Await(w, "lrc-fetch")
		replies = append(replies, reply.Payload.Body.(*pageReply))
	}

	// Apply in happens-before order. Nothing yields from the last reply to
	// the end of the apply loop (the Charge after it may Flush), so the
	// ordering scratch is borrowed from a pool for exactly that span. Each
	// unit's interval vector is resolved once; merge then orders the k
	// units of w writers over per-writer chain heads in O(k·w).
	o := getMissOrder()
	for i, w := range writers {
		switch n.impl.Collect {
		case core.Diffs:
			o.addDiffs(w.proc, replies[i].Diffs)
		case core.Timestamps:
			o.addStamped(w.proc, &replies[i].Stamped)
		}
	}
	clear(waiters)
	clear(replies)
	n.missWaiters, n.missReplies = waiters[:0], replies[:0]
	for i := range o.units {
		u := &o.units[i]
		if rec := n.record(u.proc, u.ival); rec != nil {
			u.vec = rec.vec
		}
	}
	words := 0
	for _, i := range o.merge() {
		u := &o.units[i]
		w := wcollect.ApplyRuns(n.Im, u.dr)
		if n.stamps != nil {
			n.stamps.ApplyStamps(u.sr)
		}
		n.Tr.Apply(n.P.Now(), n.P.ID(), trace.DomainPage, pg, u.proc, w)
		words += w
	}
	o.release()
	n.Tr.Work(n.P.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, sim.Time(words)*n.CM.WordApply)
	n.Charge(sim.Time(words) * n.CM.WordApply)

	for _, w := range writers {
		// Record exactly what was fetched: notices that arrived after the
		// requests went out remain pending.
		if win := pm.find(int32(w.proc)); win != nil && w.upTo > win.applied {
			win.applied = w.upTo
		}
	}
	// Re-validate. Under twinning the page stays write-protected so the
	// next write twins it; a write miss twins immediately.
	n.Tr.Work(n.P.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, n.CM.MProtect)
	if n.impl.Trap == core.Twinning {
		n.MMU.SetProt(pg, vm.ReadOnly)
		n.Charge(n.CM.MProtect)
		if write {
			n.writeTwinFault(pg)
		}
	} else {
		n.MMU.SetProt(pg, vm.ReadWrite)
		n.Charge(n.CM.MProtect)
	}
}

// handleFetch serves a data request for one page. With diffs, the diff is
// created once (lazily, now if necessary) and returned immediately on later
// requests; with timestamps, every request pays a fresh scan of the page's
// timestamps (the computation-overhead asymmetry of Section 5.3).
func (n *Node) handleFetch(hc *fabric.HandlerCtx, m fabric.Msg) {
	pg, since, upTo := int(m.Payload.A), m.Payload.B, m.Payload.C
	if n.diffFloor != nil && since < n.diffFloor[pg] {
		// The requester's window reaches below the kill floor: it would need
		// diffs the collector already discarded. Must be unreachable.
		n.gc.report.Violations++
	}
	fwork := n.harvestPage(pg) // lazy collection happens at first request
	n.Tr.Work(hc.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, fwork)
	hc.Work(fwork)

	reply := &pageReply{}
	size := 0
	switch n.impl.Collect {
	case core.Diffs:
		for _, idf := range n.diffStore[pg] {
			if idf.Ival > since && idf.Ival <= upTo {
				reply.Diffs = append(reply.Diffs, idf)
				size += idf.Diff.WireSize()
			}
		}
		if Trace {
			fmt.Printf("    [lrc] p%d serves fetch(pg%d since %d) from p%d: %d diffs of %d stored\n",
				n.P.ID(), pg, since, m.From, len(reply.Diffs), len(n.diffStore[pg]))
			for _, idf := range reply.Diffs {
				fmt.Printf("      ival %d: %d runs\n", idf.Ival, len(idf.Diff.Runs))
			}
		}
	case core.Timestamps:
		pageRange := []mem.Range{{Base: mem.PageBase(pg), Len: mem.PageSize}}
		runs, scanned := wcollect.SelectPred(n.stamps, pageRange,
			wcollect.ProcWindow{Proc: n.P.ID(), Since: since, UpTo: upTo})
		n.Tr.Work(hc.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, sim.Time(scanned)*n.CM.WordScan)
		hc.Work(sim.Time(scanned) * n.CM.WordScan)
		reply.Stamped = wcollect.ExtractStamped(n.Im, runs)
		size = reply.Stamped.WireSize(wcollect.LRCStampBytes)
		n.Extra.StampRunsSent += int64(len(runs))
	}
	n.Tr.FetchServe(hc.Now(), n.P.ID(), pg, m.From, size)
	hc.Reply(m, kindFetchReply, size, fabric.Payload{Kind: fabric.PayloadPageReply, Body: reply})
}

// --- syncmgr lock hooks ----------------------------------------------------

type lockHooks Node

func (h *lockHooks) node() *Node { return (*Node)(h) }

// MakeLockRequest attaches the requester's interval vector.
func (h *lockHooks) MakeLockRequest(l core.LockID, mode syncmgr.Mode) (fabric.Payload, int) {
	n := h.node()
	v := make([]int32, len(n.vec))
	copy(v, n.vec)
	return fabric.Payload{Vec: v}, 4 * len(v)
}

// MakeLockGrant closes the granter's interval and piggybacks the write
// notices the requester's vector does not cover.
func (h *lockHooks) MakeLockGrant(l core.LockID, mode syncmgr.Mode, req fabric.Payload, requester int) (fabric.Payload, int, sim.Time) {
	n := h.node()
	work := n.closeInterval()
	records, size := n.collectNotices(req.Vec)
	v := make([]int32, len(n.vec))
	copy(v, n.vec)
	return fabric.Payload{Vec: v, Body: &noticeBody{records: records}}, size + 4*len(v), work
}

// ApplyLockGrant installs the piggybacked write notices and invalidates.
func (h *lockHooks) ApplyLockGrant(l core.LockID, mode syncmgr.Mode, payload fabric.Payload) sim.Time {
	n := h.node()
	return n.absorb(payload.Body.(*noticeBody).records, payload.Vec)
}

// LocalReacquire begins a new interval even without communication, so local
// write epochs remain distinguishable.
func (h *lockHooks) LocalReacquire(l core.LockID, mode syncmgr.Mode) {
	// The interval was already closed by Node.Acquire before the lock
	// manager ran; nothing further is needed.
}

// OnRelease is lazy: consistency work happens when the next acquire arrives.
func (h *lockHooks) OnRelease(l core.LockID) sim.Time { return 0 }

// --- syncmgr barrier hooks --------------------------------------------------

type barrierHooks Node

func (h *barrierHooks) node() *Node { return (*Node)(h) }

// MakeArrival closes the interval and sends the manager this processor's
// vector (the payload Vec slot) plus its own interval records created since
// the last barrier (a noticeBody).
func (h *barrierHooks) MakeArrival(b core.BarrierID) (fabric.Payload, int, sim.Time) {
	n := h.node()
	work := n.closeInterval()
	self := n.P.ID()
	recs := n.recordsAfter(self, n.lastBarrierSent)
	size := 4 * len(n.vec)
	for _, r := range recs {
		size += r.wireSize()
	}
	n.lastBarrierSent = n.cur - 1
	v := make([]int32, len(n.vec))
	copy(v, n.vec)
	return fabric.Payload{Vec: v, Body: &noticeBody{records: recs}}, size, work
}

// AbsorbArrival buffers one arrival at the manager. The records are merged
// into the manager's consistency state only at PrepareDepartures: until then
// the manager may still be computing, and applying write notices mid-
// interval would invalidate pages under its feet.
func (h *barrierHooks) AbsorbArrival(b core.BarrierID, from int, payload fabric.Payload) sim.Time {
	n := h.node()
	n.arrivalVecs[from] = payload.Vec
	if from != n.P.ID() {
		body := payload.Body.(*noticeBody)
		n.arrivalRecs[from] = body.records
		if body.minVec != nil {
			if n.arrivalMins == nil {
				n.arrivalMins = make(map[int][]int32)
			}
			n.arrivalMins[from] = body.minVec
		} else if n.arrivalMins != nil {
			delete(n.arrivalMins, from)
		}
	}
	return 0
}

// MergeSubtreeArrival implements syncmgr.TreeBarrierHooks: fold the child
// subtree arrivals buffered by AbsorbArrival into this node's own arrival.
// The merged record set is the union (each processor's records travel up
// exactly one tree path, so the sets are disjoint by writer); the payload
// Vec becomes the subtree's elementwise-max vector (what absorbing merges)
// and the body's minVec its elementwise-min (what departures must cover).
// Children are folded in ascending processor order to keep runs replayable.
func (h *barrierHooks) MergeSubtreeArrival(b core.BarrierID, own fabric.Payload) (fabric.Payload, int, sim.Time) {
	n := h.node()
	maxVec := own.Vec // MakeArrival already returns a private copy
	minVec := make([]int32, len(maxVec))
	copy(minVec, maxVec)
	// Own records alias n.records[self]; the union must not append in place.
	records := append([]*interval(nil), own.Body.(*noticeBody).records...)
	for from := 0; from < n.Base.NProcs; from++ {
		recs, ok := n.arrivalRecs[from]
		if !ok {
			continue
		}
		records = append(records, recs...)
		delete(n.arrivalRecs, from)
		cv := n.arrivalVecs[from]
		mv := n.arrivalMins[from]
		if mv == nil {
			mv = cv // leaf child: its own vector is its subtree min
		}
		for q := range minVec {
			if mv[q] < minVec[q] {
				minVec[q] = mv[q]
			}
			if cv[q] > maxVec[q] {
				maxVec[q] = cv[q]
			}
		}
	}
	size := 8 * len(maxVec) // max and min vectors
	for _, r := range records {
		size += r.wireSize()
	}
	return fabric.Payload{Vec: maxVec, Body: &noticeBody{records: records, minVec: minVec}}, size, 0
}

// PrepareDepartures runs at the manager once everyone (itself included) has
// arrived: the buffered records are merged and the pages they name are
// invalidated locally.
func (h *barrierHooks) PrepareDepartures(b core.BarrierID) sim.Time {
	n := h.node()
	var work sim.Time
	for from := 0; from < n.Base.NProcs; from++ {
		recs, ok := n.arrivalRecs[from]
		if !ok {
			continue
		}
		work += n.absorb(recs, n.arrivalVecs[from])
		delete(n.arrivalRecs, from)
	}
	// The barrier is the machine's quiescent point: every processor is
	// blocked here and nothing carrying records is in flight, so this is
	// where collected intervals are provably dead (see gc.go).
	if n.gc != nil {
		n.gc.collect()
	}
	return work
}

// MakeDeparture sends processor q every record it lacks.
func (h *barrierHooks) MakeDeparture(b core.BarrierID, to int) (fabric.Payload, int, sim.Time) {
	n := h.node()
	av := n.arrivalVecs[to]
	if mv, ok := n.arrivalMins[to]; ok {
		// Tree fan-in: the departure must cover everything ANY member of the
		// child's subtree lacks, so it is keyed to the subtree min vector.
		av = mv
	}
	records, size := n.collectNotices(av)
	if Trace {
		fmt.Printf("    [lrc] t=%v barrier %d mgr p%d departure to p%d: av=%v, %d records:",
			n.P.Now(), b, n.P.ID(), to, av, len(records))
		for _, r := range records {
			fmt.Printf(" (p%d,%d,pgs%v)", r.proc, r.idx, r.pages)
		}
		fmt.Println()
	}
	v := make([]int32, len(n.vec))
	copy(v, n.vec)
	return fabric.Payload{Vec: v, Body: &noticeBody{records: records}}, size + 4*len(v), 0
}

// ApplyDeparture installs the departure's notices at a client.
func (h *barrierHooks) ApplyDeparture(b core.BarrierID, payload fabric.Payload) sim.Time {
	n := h.node()
	return n.absorb(payload.Body.(*noticeBody).records, payload.Vec)
}

// SetBarrierFanIn arranges barrier episodes as a radix-r arrival/departure
// tree (see syncmgr.BarrierMgr.SetFanIn). Must be called before the
// simulation starts; r < 2 keeps the flat protocol.
func (n *Node) SetBarrierFanIn(r int) { n.bars.SetFanIn(r) }

var _ core.DSM = (*Node)(nil)
var _ syncmgr.LockHooks = (*lockHooks)(nil)
var _ syncmgr.BarrierHooks = (*barrierHooks)(nil)
var _ syncmgr.TreeBarrierHooks = (*barrierHooks)(nil)
