package sim

import (
	"fmt"
	"runtime/debug"
)

// event is a scheduled callback. Events at equal times fire in scheduling
// order (seq), which is what makes the simulation deterministic.
//
// The scheduler's own wake-ups (sleep expiry, deferred resume, unpark) are
// encoded as typed events targeting a Proc instead of closures: they are by
// far the most frequent events, and storing them inline keeps the event loop
// allocation-free. Subsystems with their own high-frequency events (the
// fabric's message deliveries) use typed timer events (kindTimer) the same
// way: the Timer target is stored inline, so no closure is allocated.
type event struct {
	at   Time
	seq  uint64
	kind uint8
	gen  uint64 // kindSleepWake: wake-generation guard
	p    *Proc  // target of the typed kinds
	fn   func() // kindFn only
	t    Timer  // kindTimer only
}

const (
	kindFn        = uint8(iota) // run fn
	kindSleepWake               // resume p if its wake generation still matches
	kindRunProc                 // resume p unconditionally (busyUntil deferral, spawn)
	kindUnpark                  // resume p if still parked
	kindTimer                   // fire t
)

// Probe observes scheduler activity for the tracing subsystem. All methods
// run inside the event loop and must not mutate simulation state: a probed run
// must stay bit-identical to an unprobed one. ProcBlocked fires when a
// process gives up the CPU (with the wait reason it parks under); ProcResumed
// fires once per actual process resume (the wake half of the block/wake
// cycle — busyUntil deferrals and stale wake generations do not fire it);
// EventDispatched fires for every event the loop dispatches, with the
// internal event kind and the target process id (-1 for callbacks and
// timers). Because virtual time only advances while every process is blocked,
// a ProcBlocked/ProcResumed pairing exactly tiles each process's lifetime
// into blocked intervals — the profiler's time-accounting foundation.
type Probe interface {
	ProcBlocked(at Time, proc int, reason string)
	ProcResumed(at Time, proc int)
	EventDispatched(at Time, kind uint8, proc int)
}

// Timer is the typed-event counterpart of a Schedule closure for subsystems
// that schedule many recurring events of their own (message deliveries, link
// claims). The target is stored inline in the event, so scheduling one
// allocates nothing; Fire runs in scheduler context at the scheduled instant,
// under the same ordering rules as any event.
type Timer interface {
	Fire(at Time)
}

// eventLess orders events by (at, seq): earlier time first, scheduling order
// on ties. seq is unique, so this is a strict total order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns the virtual clock and the event queue, and resumes
// processes from one dispatch loop in Run. Each process is an iter.Pull
// coroutine: Run's loop drains events until some process must resume, then
// switches to it through its next function. A process that blocks drives the
// event loop itself until some process must resume: itself (no switch at
// all, the common case for an undisturbed Sleep) or another process, which
// it yields to the loop to resume. Coroutine switches never pass through the
// Go scheduler, and the event order is the same as draining the queue from a
// single loop. All simulation state (processes, protocol structures, memory
// images) is mutated by whichever of Run's loop and the processes is
// running, exactly one at a time, so no locking is needed anywhere in the
// simulation.
type Simulator struct {
	now Time
	seq uint64

	// queue is a value-based 4-ary min-heap ordered by eventLess. Storing
	// events by value (rather than *event through container/heap's interface
	// boxing) keeps Schedule/pop allocation-free in steady state.
	queue []event

	// nowQ is the fast path for the very common same-instant case
	// (After(0, ...), Schedule(Now(), ...)): events scheduled for the
	// current instant carry a seq greater than any queued event at this
	// instant, so they form a FIFO that needs no heap sifting. nowHead
	// indexes the first unconsumed entry; the backing array is reused once
	// the instant drains.
	nowQ    []event
	nowHead int

	// batch is the per-instant run queue: when dispatching an event resumes a
	// process, every immediately following event at the same instant that is
	// itself a process wake-up is popped ahead of time into this FIFO. Each
	// process that blocks then takes the next entry without re-entering the
	// queues. Entries are raw events, validated (wake generation, busyUntil,
	// parked state) only when their turn comes, which keeps the dispatch
	// order and every reschedule's sequence number identical to unbatched
	// execution.
	batch     []event
	batchHead int

	// probe, when non-nil, observes dispatches and process resumes. The
	// disabled path costs one nil check per event.
	probe Probe

	procs   []*Proc
	failure error // first panic captured from a process
	stopped bool

	// watchdog, when > 0, is the virtual-time horizon past which the run is
	// declared stalled: the first event scheduled beyond it stops the loop
	// and Run returns a *Stalled naming every blocked process. watchdogHit
	// records that the horizon fired.
	watchdog    Time
	watchdogHit bool
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// SetProbe installs the scheduler observation hook (nil to remove). Must be
// called before Run; the probe only records, so probed runs are bit-identical
// to unprobed ones.
func (s *Simulator) SetProbe(p Probe) { s.probe = p }

// SetWatchdog arms the virtual-time watchdog: if the simulation is about to
// advance past limit, the run stops and Run returns a *Stalled error naming
// every still-blocked process and what it waits on. Events at exactly limit
// still fire. Zero disables the watchdog (the default). A watchdog bounds
// livelocks and pathological slowdowns the plain deadlock detector cannot
// see, because in those the event queue never drains.
func (s *Simulator) SetWatchdog(limit Time) { s.watchdog = limit }

// Procs returns the processes spawned so far, in spawn order.
func (s *Simulator) Procs() []*Proc { return s.procs }

// Schedule registers fn to run at time at (>= Now) in scheduler context.
// Callbacks scheduled for the same instant run in the order scheduled.
func (s *Simulator) Schedule(at Time, fn func()) {
	s.schedule(event{at: at, fn: fn})
}

// ScheduleTimer registers t to fire at time at (>= Now) in scheduler context,
// under the same same-instant ordering as Schedule, without allocating: the
// target is stored inline in the event.
func (s *Simulator) ScheduleTimer(at Time, t Timer) {
	s.schedule(event{at: at, kind: kindTimer, t: t})
}

// schedule enqueues e (whose at must be >= Now), assigning its sequence
// number.
func (s *Simulator) schedule(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	if e.at == s.now {
		s.nowQ = append(s.nowQ, e)
		return
	}
	s.heapPush(e)
}

// dispatch runs one event, returning the process that must now resume
// (marked running), or nil to keep looping.
func (s *Simulator) dispatch(ev *event) *Proc {
	if s.probe != nil {
		pid := -1
		if ev.p != nil {
			pid = ev.p.id
		}
		s.probe.EventDispatched(ev.at, ev.kind, pid)
	}
	switch ev.kind {
	case kindFn:
		ev.fn()
		return nil
	case kindSleepWake:
		// wake re-checks busyUntil and reschedules if the sleep was
		// extended by injected handler work.
		if ev.p.wakeGen == ev.gen {
			return s.wake(ev.p)
		}
		return nil
	case kindRunProc:
		return s.wake(ev.p)
	case kindUnpark:
		if ev.p.parked && ev.p.state == stateBlocked {
			ev.p.parked = false
			return s.wake(ev.p)
		}
		return nil
	case kindTimer:
		ev.t.Fire(ev.at)
		return nil
	}
	panic("sim: unknown event kind")
}

// step drains events until some process must resume (returned marked
// running) or the run is over (nil). Called by Run's loop and by blocking
// processes. The per-instant batch is drained first: its entries were popped
// ahead of the queues and must fire before anything scheduled since. A panic
// in an event callback is recorded as the run's failure and ends the run:
// the loop may be driven by any process coroutine, where an escaping panic
// would be misattributed to the blocking process.
func (s *Simulator) step() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			s.failure = &procPanic{proc: "(event callback)", value: r, stack: debug.Stack()}
			next = nil
		}
	}()
	for s.batchHead < len(s.batch) && s.failure == nil && !s.stopped {
		ev := s.batch[s.batchHead]
		s.batch[s.batchHead] = event{}
		s.batchHead++
		if s.batchHead == len(s.batch) {
			s.batch = s.batch[:0]
			s.batchHead = 0
		}
		if p := s.dispatch(&ev); p != nil {
			s.batchWakes()
			return p
		}
	}
	for s.pending() && s.failure == nil && !s.stopped {
		if s.watchdog > 0 && s.peek().at > s.watchdog {
			// The next event lies beyond the watchdog horizon: declare the
			// run stalled without advancing the clock past the limit.
			s.watchdogHit = true
			return nil
		}
		ev := s.pop()
		s.now = ev.at
		if p := s.dispatch(&ev); p != nil {
			s.batchWakes()
			return p
		}
	}
	return nil
}

// peek returns the event that pop would remove next, or nil.
func (s *Simulator) peek() *event {
	if s.nowHead < len(s.nowQ) {
		front := &s.nowQ[s.nowHead]
		if len(s.queue) == 0 || eventLess(front, &s.queue[0]) {
			return front
		}
		return &s.queue[0]
	}
	if len(s.queue) > 0 {
		return &s.queue[0]
	}
	return nil
}

// batchWakes extends the per-instant batch: consecutive pending wake-up
// events at the current instant are popped into the batch so the processes
// they resume are run one after another without queue re-entry.
// The look-ahead stops at the first callback or timer event (those may mutate
// state the later wake-ups' validation depends on only in the same ways a
// process run can, but keeping them in the queues keeps the batch a pure run
// queue of processes). Entries stay unvalidated; see the batch field.
func (s *Simulator) batchWakes() {
	for {
		e := s.peek()
		if e == nil || e.at != s.now || e.kind == kindFn || e.kind == kindTimer {
			return
		}
		s.batch = append(s.batch, s.pop())
	}
}

// After is shorthand for Schedule(Now()+d, fn).
func (s *Simulator) After(d Time, fn func()) { s.Schedule(s.now+d, fn) }

// heapPush inserts e into the 4-ary heap.
func (s *Simulator) heapPush(e event) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	s.queue = q
}

// heapPop removes and returns the minimum event of the 4-ary heap.
func (s *Simulator) heapPop() event {
	q := s.queue
	top := q[0]
	last := len(q) - 1
	e := q[last]
	q[last] = event{} // release the closure for GC
	q = q[:last]
	s.queue = q
	if last > 0 {
		i := 0
		for {
			first := i<<2 + 1
			if first >= last {
				break
			}
			min := first
			end := first + 4
			if end > last {
				end = last
			}
			for c := first + 1; c < end; c++ {
				if eventLess(&q[c], &q[min]) {
					min = c
				}
			}
			if !eventLess(&q[min], &e) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = e
	}
	return top
}

// pending reports whether any event remains in either queue.
func (s *Simulator) pending() bool {
	return len(s.queue) > 0 || s.nowHead < len(s.nowQ)
}

// pop removes the globally minimum event across the heap and the
// same-instant FIFO. The selection is delegated to peek, so the batch
// look-ahead (which peeks, then pops) can never disagree with it.
func (s *Simulator) pop() event {
	front := s.peek()
	if s.nowHead < len(s.nowQ) && front == &s.nowQ[s.nowHead] {
		e := *front
		*front = event{} // release the closure and proc for GC
		s.nowHead++
		if s.nowHead == len(s.nowQ) {
			s.nowQ = s.nowQ[:0]
			s.nowHead = 0
		}
		return e
	}
	return s.heapPop()
}

// wake prepares p to resume, or returns nil if it must not run yet. Called
// only from the event loop.
func (s *Simulator) wake(p *Proc) *Proc {
	if p.state == stateDone {
		return nil
	}
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: resuming %s in state %v", p.name, p.state))
	}
	// A process may not run before its busyUntil horizon (time consumed on
	// its behalf by message handlers while it was blocked).
	if p.busyUntil > s.now {
		s.schedule(event{at: p.busyUntil, kind: kindRunProc, p: p})
		return nil
	}
	p.state = stateRunning
	if s.probe != nil {
		s.probe.ProcResumed(s.now, p.id)
	}
	return p
}

// Deadlock is returned by Run when the event queue drains while processes are
// still blocked.
type Deadlock struct {
	At      Time
	Blocked []string // names of the blocked processes with their wait reasons
}

// Error describes the deadlock with every blocked process and its reason.
func (d *Deadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: blocked: %v", d.At, d.Blocked)
}

// Stalled is returned by Run when the virtual-time watchdog (SetWatchdog)
// fires: the simulation was about to advance past the limit with work still
// pending. Blocked lists every unfinished process with its wait reason
// (lock, barrier, page fetch, ...), same format as Deadlock.
type Stalled struct {
	Limit   Time
	At      Time     // virtual time reached when the watchdog fired
	Blocked []string // names of the unfinished processes with wait reasons
}

// Error names the limit and every process still waiting when it fired.
func (st *Stalled) Error() string {
	return fmt.Sprintf("sim: watchdog: no progress past %v (stopped at %v): blocked: %v",
		st.Limit, st.At, st.Blocked)
}

// Run drives the simulation until the event queue is empty or a process
// panics. It returns nil when every spawned process has finished, a *Deadlock
// if some are still blocked, or the captured panic as an error.
func (s *Simulator) Run() error {
	// The dispatch loop: resume each process the event loop selects. A
	// process that blocks returns the next one itself; one whose body
	// returned leaves the loop to pick it.
	for p := s.step(); p != nil; {
		q, ok := p.next()
		if !ok {
			q = s.step()
		}
		p = q
	}
	// Gather the blocked set for the deadlock report before the teardown
	// below releases those processes.
	var blocked []string
	for _, p := range s.procs {
		if p.state != stateDone {
			blocked = append(blocked, fmt.Sprintf("%s(%s)", p.name, p.waitReason))
		}
	}
	// The run is over in every branch from here: release suspended process
	// coroutines so stopped, deadlocked and failed runs do not leak their
	// goroutines. A stop or failure may abandon prefetched batch entries;
	// drop them with the run.
	s.batch, s.batchHead = nil, 0
	s.killBlocked()
	if s.failure != nil {
		return s.failure
	}
	if s.watchdogHit {
		return &Stalled{Limit: s.watchdog, At: s.now, Blocked: blocked}
	}
	if len(blocked) > 0 && !s.stopped {
		return &Deadlock{At: s.now, Blocked: blocked}
	}
	return nil
}

// Stop aborts the run at the end of the current event. Run releases every
// unfinished process (via killBlocked) before returning. Intended for tests.
func (s *Simulator) Stop() { s.stopped = true }

// killBlocked releases every process coroutine left unfinished when a run
// ends (stop, deadlock or failure). Stopping a suspended process makes its
// pending yield report false, so block unwinds it with the killSignal that
// runBody recovers; a process that never started is released without
// running its body. Without this, repeated terminated runs accumulate
// goroutines forever.
func (s *Simulator) killBlocked() {
	for _, p := range s.procs {
		if p.state != stateDone {
			p.stop()
			p.state, p.finishedAt = stateDone, s.now
		}
	}
}

type procPanic struct {
	proc  string
	value any
	stack []byte
}

// Error reproduces the panicking process, value and stack.
func (e *procPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", e.proc, e.value, e.stack)
}
