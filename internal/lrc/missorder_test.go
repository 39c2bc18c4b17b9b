package lrc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ecvslrc/internal/mem"
	"ecvslrc/internal/wcollect"
)

// kahnOrder is the reference the chain merge must reproduce: Kahn's
// algorithm over precomputed in-degrees of every unit pair, O(k²), always
// extracting the (proc, ival)-minimum source.
func kahnOrder(units []applyUnit) []applyUnit {
	before := func(a, b int) bool { // did units[a] happen before units[b]?
		if units[a].proc == units[b].proc {
			return units[a].ival < units[b].ival
		}
		return units[b].vec != nil && units[b].vec[units[a].proc] >= units[a].ival
	}
	indeg := make([]int, len(units))
	for b := range units {
		for a := range units {
			if a != b && before(a, b) {
				indeg[b]++
			}
		}
	}
	ordered := make([]applyUnit, 0, len(units))
	done := make([]bool, len(units))
	for len(ordered) < len(units) {
		pick := -1
		for i := range units {
			if done[i] || indeg[i] != 0 {
				continue
			}
			if pick < 0 || units[i].proc < units[pick].proc ||
				(units[i].proc == units[pick].proc && units[i].ival < units[pick].ival) {
				pick = i
			}
		}
		if pick < 0 {
			panic("lrc: cycle in interval happens-before order")
		}
		done[pick] = true
		ordered = append(ordered, units[pick])
		for b := range units {
			if !done[b] && before(pick, b) {
				indeg[b]--
			}
		}
	}
	return ordered
}

// refStampedUnits is the reference Timestamps split: units in first-seen
// interval order across all replies, runs in reply order within each unit.
func refStampedUnits(procs []int, replies []wcollect.StampedData) []applyUnit {
	var units []applyUnit
	for i, sd := range replies {
		for k, sr := range sd.Runs {
			p, iv := sr.Stamp.ProcInterval()
			if p != procs[i] {
				panic("lrc: responder sent foreign stamps")
			}
			u := (*applyUnit)(nil)
			for j := range units {
				if units[j].proc == p && units[j].ival == int32(iv) {
					u = &units[j]
					break
				}
			}
			if u == nil {
				units = append(units, applyUnit{proc: p, ival: int32(iv)})
				u = &units[len(units)-1]
			}
			u.sr = append(u.sr, sr)
			u.dr = append(u.dr, sd.Data[k])
		}
	}
	return units
}

// genMiss draws the pending units of one access miss: k units spread over w
// writers (ascending, drawn from nprocs processors; a writer may get none),
// each writer's units an interval chain, with vectors from a random
// happens-before history of interval closes and pairwise synchronizations.
// A fraction nilFrac of the units has no resolved vector.
func genMiss(rng *rand.Rand, nprocs, w, k int, even bool, nilFrac float64) (procs []int, chains [][]applyUnit) {
	procs = rng.Perm(nprocs)[:w]
	sort.Ints(procs)
	left := make([]int, w)
	for i := 0; i < k; i++ {
		if even {
			left[i%w]++
		} else {
			left[rng.Intn(w)]++
		}
	}
	vc := make([][]int32, w)
	for i := range vc {
		vc[i] = make([]int32, nprocs)
	}
	chains = make([][]applyUnit, w)
	for remaining := k; remaining > 0; remaining-- {
		i := rng.Intn(w)
		for left[i] == 0 {
			i = (i + 1) % w
		}
		left[i]--
		if j := rng.Intn(w); rng.Intn(2) == 0 && j != i {
			for q, v := range vc[j] {
				vc[i][q] = max(vc[i][q], v)
			}
		}
		p := procs[i]
		ival := vc[i][p] + 1 + int32(rng.Intn(2)) // some intervals skip the page
		u := applyUnit{proc: p, ival: ival}
		if rng.Float64() >= nilFrac {
			u.vec = append([]int32(nil), vc[i]...)
		}
		vc[i][p] = ival
		chains[i] = append(chains[i], u)
	}
	return procs, chains
}

// mergeOrder runs the chain merge over chains added in the given order.
func mergeOrder(procs []int, chains [][]applyUnit) []applyUnit {
	o := &missOrder{}
	for i, c := range chains {
		o.writer(procs[i])
		o.units = append(o.units, c...)
	}
	var out []applyUnit
	for _, i := range o.merge() {
		out = append(out, o.units[i])
	}
	return out
}

func flatten(chains [][]applyUnit) []applyUnit {
	var units []applyUnit
	for _, c := range chains {
		units = append(units, c...)
	}
	return units
}

func sameOrder(t *testing.T, what string, got, want []applyUnit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d units ordered, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].proc != want[i].proc || got[i].ival != want[i].ival ||
			!reflect.DeepEqual(got[i].vec, want[i].vec) {
			t.Fatalf("%s: unit %d is (p%d,%d), want (p%d,%d)",
				what, i, got[i].proc, got[i].ival, want[i].proc, want[i].ival)
		}
	}
}

// TestMergeMatchesKahn checks the chain merge against the O(k²) reference
// on random happens-before histories, with chains added out of interval
// order and a share of unresolved (nil) vectors.
func TestMergeMatchesKahn(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		nprocs := 1 + rng.Intn(12)
		w := 1 + rng.Intn(nprocs)
		k := rng.Intn(40)
		var nilFrac float64
		if trial%3 == 0 {
			nilFrac = rng.Float64()
		}
		procs, chains := genMiss(rng, nprocs, w, k, false, nilFrac)
		for _, c := range chains {
			rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
		}
		units := flatten(chains)
		rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })
		sameOrder(t, fmt.Sprintf("trial %d (procs=%d w=%d k=%d)", trial, nprocs, w, k),
			mergeOrder(procs, chains), kahnOrder(units))
	}
}

func TestMergeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ nprocs, w, k int }{
		{1, 1, 1},    // k = 1, w = 1
		{8, 1, 1},    // one unit of one writer among many processors
		{8, 1, 20},   // w = 1: a single chain
		{16, 16, 16}, // w = k: every writer one unit
		{256, 24, 84},
		{256, 256, 256},
	} {
		for trial := 0; trial < 50; trial++ {
			procs, chains := genMiss(rng, tc.nprocs, tc.w, tc.k, true, 0)
			sameOrder(t, fmt.Sprintf("%+v trial %d", tc, trial),
				mergeOrder(procs, chains), kahnOrder(flatten(chains)))
		}
	}
}

func TestMergeCyclePanics(t *testing.T) {
	// (0,1) covers (1,1) and (1,1) covers (0,1): no legal order exists.
	chains := [][]applyUnit{
		{{proc: 0, ival: 1, vec: []int32{0, 1}}},
		{{proc: 1, ival: 1, vec: []int32{1, 0}}},
	}
	for name, order := range map[string]func(){
		"merge": func() { mergeOrder([]int{0, 1}, chains) },
		"kahn":  func() { kahnOrder(flatten(chains)) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "cycle") {
					t.Errorf("%s: recovered %v, want the cycle panic", name, r)
				}
			}()
			order()
		}()
	}
}

// TestStampedSplitMatchesReference drives the Timestamps path end to end:
// replies whose runs carry their intervals out of order must be split and
// ordered exactly as the first-seen split plus Kahn's selection did.
func TestStampedSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		nprocs := 1 + rng.Intn(8)
		w := 1 + rng.Intn(nprocs)
		procs, chains := genMiss(rng, nprocs, w, rng.Intn(24), false, 0.2)
		vecOf := map[[2]int][]int32{}
		replies := make([]wcollect.StampedData, w)
		for i, c := range chains {
			for _, u := range c {
				vecOf[[2]int{u.proc, int(u.ival)}] = u.vec
			}
			if len(c) == 0 {
				continue
			}
			for r := rng.Intn(12); r > 0; r-- {
				base := mem.Addr(16 * len(replies[i].Runs))
				u := c[rng.Intn(len(c))]
				replies[i].Runs = append(replies[i].Runs, wcollect.StampRun{
					Base: base, Len: 8, Stamp: wcollect.LRCStamp(u.proc, int(u.ival))})
				replies[i].Data = append(replies[i].Data, wcollect.DataRun{
					Base: base, Data: []byte{byte(trial), byte(r)}})
			}
		}

		want := refStampedUnits(procs, replies)
		for i := range want {
			want[i].vec = vecOf[[2]int{want[i].proc, int(want[i].ival)}]
		}
		want = kahnOrder(want)

		o := getMissOrder()
		for i := range replies {
			o.addStamped(procs[i], &replies[i])
		}
		for i := range o.units {
			o.units[i].vec = vecOf[[2]int{o.units[i].proc, int(o.units[i].ival)}]
		}
		var got []applyUnit
		for _, i := range o.merge() {
			got = append(got, o.units[i])
		}
		sameOrder(t, fmt.Sprintf("trial %d", trial), got, want)
		for i := range got {
			if !reflect.DeepEqual(got[i].sr, want[i].sr) || !reflect.DeepEqual(got[i].dr, want[i].dr) {
				t.Fatalf("trial %d unit %d: runs %+v / %+v, want %+v / %+v",
					trial, i, got[i].sr, got[i].dr, want[i].sr, want[i].dr)
			}
		}
		o.release()
	}
}

func TestMissOrderResetDropsPointers(t *testing.T) {
	o := &missOrder{}
	o.addDiffs(2, []ivalDiff{{Ival: 1, Diff: &wcollect.Diff{Runs: make([]wcollect.DataRun, 1)}}})
	o.addStamped(3, &wcollect.StampedData{
		Runs: []wcollect.StampRun{{Len: 8, Stamp: wcollect.LRCStamp(3, 1)}},
		Data: []wcollect.DataRun{{Data: []byte{1}}},
	})
	o.units[0].vec = make([]int32, 4)
	o.merge()
	o.reset()
	if len(o.units)+len(o.heads)+len(o.order)+len(o.keys)+len(o.sr)+len(o.dr) != 0 {
		t.Fatal("reset left scratch in use")
	}
	for _, u := range o.units[:cap(o.units)] {
		if u.vec != nil || u.dr != nil || u.sr != nil {
			t.Fatalf("reset kept a unit's pointers: %+v", u)
		}
	}
	for _, d := range o.dr[:cap(o.dr)] {
		if d.Data != nil {
			t.Fatal("reset kept stamped reply data")
		}
	}
}

// BenchmarkLRCMissOrder measures one access miss's ordering on a warm pool:
// borrowing the scratch, adding each writer's diffs, resolving vectors and
// the chain merge. k=84/w=24 is the mean miss of the 256-proc Water LRC-diff
// cell at bench scale; k=1536/w=256 is its largest. The warm path must not
// allocate.
func BenchmarkLRCMissOrder(b *testing.B) {
	for _, tc := range []struct{ k, w int }{{84, 24}, {1536, 256}} {
		b.Run(fmt.Sprintf("k=%d/w=%d", tc.k, tc.w), func(b *testing.B) {
			procs, chains := genMiss(rand.New(rand.NewSource(1)), 256, tc.w, tc.k, true, 0)
			diffs := make([][]ivalDiff, len(chains))
			var vecs [][]int32
			for i, c := range chains {
				for _, u := range c {
					diffs[i] = append(diffs[i], ivalDiff{Ival: u.ival, Diff: &wcollect.Diff{}})
					vecs = append(vecs, u.vec)
				}
			}
			miss := func() {
				o := getMissOrder()
				for i, p := range procs {
					o.addDiffs(p, diffs[i])
				}
				for i := range o.units {
					o.units[i].vec = vecs[i]
				}
				o.merge()
				o.release()
			}
			miss()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss()
			}
		})
	}
}
