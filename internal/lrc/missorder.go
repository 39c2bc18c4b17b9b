package lrc

import (
	"cmp"
	"slices"
	"sync"

	"ecvslrc/internal/wcollect"
)

// applyUnit is one writer interval's modifications, the happens-before
// ordering unit of an access miss. vec is the interval's closed-interval
// vector, nil when the record is unknown here: such a unit has no
// cross-writer predecessors.
type applyUnit struct {
	proc int
	ival int32
	vec  []int32
	dr   []wcollect.DataRun
	sr   []wcollect.StampRun
}

// chainHead is one writer's chain of apply units, units[next:end], and the
// number of other writers whose current head happened before this head.
type chainHead struct {
	proc    int
	next    int32
	end     int32
	blocked int32
}

// runKey is one stamped run of a fetch reply, keyed by its interval.
type runKey struct {
	ival int32
	k    int32
}

// missOrder is the ordering scratch of one access miss. It is pooled rather
// than kept per node: between the last fetch reply and the end of the apply
// loop nothing yields, so each running simulation holds at most one.
type missOrder struct {
	units []applyUnit
	heads []chainHead // one per writer, in ascending proc order
	order []int32     // indices into units, in application order

	// Timestamps split: each reply's runs regrouped per interval.
	keys []runKey
	sr   []wcollect.StampRun
	dr   []wcollect.DataRun
}

var missOrders = sync.Pool{New: func() any { return new(missOrder) }}

func getMissOrder() *missOrder { return missOrders.Get().(*missOrder) }

// release empties the scratch and returns it to the pool.
func (o *missOrder) release() {
	o.reset()
	missOrders.Put(o)
}

// reset empties the scratch, clearing every pointer it holds so pooled
// scratch never pins stored diffs, interval vectors or reply data.
func (o *missOrder) reset() {
	clear(o.units)
	clear(o.dr)
	o.units, o.heads, o.order = o.units[:0], o.heads[:0], o.order[:0]
	o.keys, o.sr, o.dr = o.keys[:0], o.sr[:0], o.dr[:0]
}

// writer starts the chain of the next writer; writers must be added in
// ascending proc order.
func (o *missOrder) writer(proc int) {
	o.heads = append(o.heads, chainHead{proc: proc, next: int32(len(o.units))})
}

// addDiffs adds writer proc's chain: one unit per fetched diff.
func (o *missOrder) addDiffs(proc int, diffs []ivalDiff) {
	o.writer(proc)
	for _, idf := range diffs {
		o.units = append(o.units, applyUnit{proc: proc, ival: idf.Ival, dr: idf.Diff.Runs})
	}
}

// addStamped adds writer proc's chain: its stamped runs split per interval,
// one unit per interval. Data[k] carries the bytes of Runs[k], so the
// split needs no by-address lookup; a stable sort of run indices by interval
// makes each interval's runs contiguous and keeps them in address order.
func (o *missOrder) addStamped(proc int, sd *wcollect.StampedData) {
	o.writer(proc)
	keys := o.keys[:0]
	for k, sr := range sd.Runs {
		p, iv := sr.Stamp.ProcInterval()
		if p != proc {
			panic("lrc: responder sent foreign stamps")
		}
		keys = append(keys, runKey{ival: int32(iv), k: int32(k)})
	}
	slices.SortStableFunc(keys, func(a, b runKey) int { return cmp.Compare(a.ival, b.ival) })
	o.keys = keys
	for i := 0; i < len(keys); {
		lo := len(o.sr)
		j := i
		for ; j < len(keys) && keys[j].ival == keys[i].ival; j++ {
			o.sr = append(o.sr, sd.Runs[keys[j].k])
			o.dr = append(o.dr, sd.Data[keys[j].k])
		}
		o.units = append(o.units, applyUnit{proc: proc, ival: keys[i].ival,
			sr: o.sr[lo:len(o.sr):len(o.sr)], dr: o.dr[lo:len(o.dr):len(o.dr)]})
		i = j
	}
}

// happenedBefore reports whether writer p's interval i happened before an
// interval of another writer whose closed-interval vector is vec: that
// writer had seen interval i closed when it closed its own. A nil vector (a
// record unknown here) orders nothing.
func happenedBefore(vec []int32, p int, i int32) bool {
	return vec != nil && vec[p] >= i
}

// merge computes the application order of the units: unit a must precede b
// when a is an earlier interval of b's writer or b's vector covers a's
// interval. Happens-before plus an arbitrary tie-break is NOT a strict weak
// order (incomparability is not transitive), so a comparison sort would be
// unsound; merge is instead a topological selection that always extracts
// the (proc, ival)-minimum unit with no unapplied predecessor. Concurrent
// units touch disjoint words (they arise only from multi-writer false
// sharing), so their relative order matters only for determinism.
//
// One writer's units form a chain ordered by interval, so only a chain head
// can be a source, and head b is blocked by writer p exactly when b's vector
// covers p's head. Each head keeps a count of the writers blocking it; a pick
// takes the lowest-proc unblocked head, and advancing its writer rechecks
// the other heads against that writer only. The order is the one Kahn's
// algorithm over all unit pairs yields, in O(k·w) integer compares for k
// units from w writers instead of O(k²).
func (o *missOrder) merge() []int32 {
	heads := o.heads
	for h := range heads {
		end := int32(len(o.units))
		if h+1 < len(heads) {
			end = heads[h+1].next
		}
		heads[h].end = end
		slices.SortStableFunc(o.units[heads[h].next:end], func(a, b applyUnit) int {
			return cmp.Compare(a.ival, b.ival)
		})
	}
	for h := range heads {
		o.countBlockers(h)
	}
	order := o.order[:0]
	for len(order) < len(o.units) {
		pick := -1
		for h := range heads {
			if heads[h].next < heads[h].end && heads[h].blocked == 0 {
				pick = h
				break
			}
		}
		if pick < 0 {
			panic("lrc: cycle in interval happens-before order")
		}
		ph := &heads[pick]
		done := o.units[ph.next].ival
		order = append(order, ph.next)
		ph.next++
		for h := range heads {
			b := &heads[h]
			if h == pick || b.next == b.end {
				continue
			}
			vec := o.units[b.next].vec
			if happenedBefore(vec, ph.proc, done) &&
				(ph.next == ph.end || !happenedBefore(vec, ph.proc, o.units[ph.next].ival)) {
				b.blocked--
			}
		}
		if ph.next < ph.end {
			o.countBlockers(pick)
		}
	}
	o.order = order
	return order
}

// countBlockers recounts the writers whose current head happened before the
// head of writer h.
func (o *missOrder) countBlockers(h int) {
	b := &o.heads[h]
	b.blocked = 0
	if b.next == b.end {
		return
	}
	vec := o.units[b.next].vec
	if vec == nil {
		return
	}
	for p := range o.heads {
		a := &o.heads[p]
		if p != h && a.next < a.end && happenedBefore(vec, a.proc, o.units[a.next].ival) {
			b.blocked++
		}
	}
}
