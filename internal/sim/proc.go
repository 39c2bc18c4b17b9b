//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

type procState int

const (
	stateBlocked procState = iota
	stateRunning
	stateDone
)

// String names the state for panics and debug output.
func (st procState) String() string {
	switch st {
	case stateBlocked:
		return "blocked"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	}
	return "?"
}

// Proc is a simulated processor: a coroutine that runs application and
// protocol code against the virtual clock. Exactly one Proc (or Run's
// dispatch loop) executes at any instant; control moves by explicit
// coroutine switches.
type Proc struct {
	sim   *Simulator
	id    int
	name  string
	state procState

	// next resumes the coroutine (starting it on first use). It returns the
	// process the dispatch loop must resume next once this one blocks (nil:
	// the run is over), or ok=false when the body has returned. yield is the
	// blocking side of next; it reports false after stop, which releases a
	// suspended or never-started coroutine when the run ends.
	next  func() (*Proc, bool)
	yield func(*Proc) bool
	stop  func()

	// busyUntil is the horizon before which this process may not resume:
	// message handlers that ran on its behalf while it was blocked have
	// consumed its CPU up to this point.
	busyUntil Time

	waitReason string
	parked     bool
	finishedAt Time
	wakeGen    uint64 // invalidates stale sleep-wake events
	callWaiter Waiter // reused rendezvous for synchronous calls
}

// killSignal is the sentinel panic value that unwinds a process whose
// coroutine is stopped at the end of a run; runBody recovers it and does not
// treat it as a failure.
type killSignal struct{}

// ID returns the process's spawn index, used as the processor identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the debug name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current simulated time. Valid only while p is running.
func (p *Proc) Now() Time { return p.sim.now }

// FinishedAt reports when the process body returned (valid after Run).
func (p *Proc) FinishedAt() Time { return p.finishedAt }

// Spawn creates a process that will execute body when Run starts. The process
// begins at time 0 (or at the current time if spawned mid-run), and processes
// spawned earlier get control first on ties. Its coroutine first runs when the
// dispatch loop resumes it.
func (s *Simulator) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{sim: s, id: len(s.procs), name: name, state: stateBlocked}
	p.callWaiter.p = p
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		p.runBody(body)
		p.state = stateDone
		p.finishedAt = s.now
	})
	s.procs = append(s.procs, p)
	s.schedule(event{at: s.now, kind: kindRunProc, p: p})
	return p
}

// runBody executes the user function, capturing panics as the simulation's
// failure. A killSignal unwind (end-of-run teardown) is not a failure.
func (p *Proc) runBody(body func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, kill := r.(killSignal); !kill {
				p.sim.failure = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
			}
		}
	}()
	body(p)
}

// block parks the process until it is resumed. The caller must have arranged
// a wake-up (an event or a Waiter delivery). The blocking process drives the
// event loop itself: when its own wake-up is the next thing to run it simply
// continues, with no coroutine switch; otherwise it yields the process to
// resume to Run's dispatch loop and is suspended until the loop resumes it.
func (p *Proc) block(reason string) {
	if p.state != stateRunning {
		panic(fmt.Sprintf("sim: block on non-running proc %s", p.name))
	}
	p.state = stateBlocked
	p.waitReason = reason
	s := p.sim
	if s.probe != nil {
		s.probe.ProcBlocked(s.now, p.id, reason)
	}
	if next := s.step(); next != p {
		if !p.yield(next) {
			panic(killSignal{})
		}
	}
	p.waitReason = ""
}

// Sleep advances the process by d: the processor is busy (computing) for d of
// simulated time. Handler work injected while sleeping extends the sleep.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	s := p.sim
	p.busyUntil = s.now + d
	p.wakeGen++
	s.schedule(event{at: p.busyUntil, kind: kindSleepWake, p: p, gen: p.wakeGen})
	p.block("sleep")
}

// InjectWork charges d of CPU time to this process on behalf of an
// asynchronous message handler (the SIGIO handler in the paper's systems).
// If the process is currently computing, its wake-up is pushed back; if it is
// blocked waiting, the time is consumed before it can resume.
func (p *Proc) InjectWork(d Time) {
	if d <= 0 {
		return
	}
	s := p.sim
	if p.busyUntil < s.now {
		p.busyUntil = s.now
	}
	p.busyUntil += d
	// Any pending sleep-wake or unpark event will observe the moved horizon
	// via runProc's busyUntil check and reschedule itself.
}

// Park blocks the process until some event unparks it via UnparkAt. Spurious
// wake-ups are possible; callers must re-check their condition in a loop.
func (p *Proc) Park(reason string) {
	p.parked = true
	p.block(reason)
}

// UnparkAt schedules the process to resume at time at (respecting any
// busyUntil horizon). Must be called from scheduler context or from another
// running process. Unparking a process that is not parked is a no-op.
func (p *Proc) UnparkAt(at Time) {
	s := p.sim
	if at < s.now {
		at = s.now
	}
	s.schedule(event{at: at, kind: kindUnpark, p: p})
}

// Waiter is a one-shot rendezvous: a process Waits until a value is
// Delivered by a handler or another process.
type Waiter struct {
	p     *Proc
	ready bool
	val   any
}

// NewWaiter returns a Waiter owned by p.
func NewWaiter(p *Proc) *Waiter { return &Waiter{p: p} }

// CallWaiter returns p's cached waiter for fully synchronous request/reply
// exchanges: the caller must Wait before issuing another synchronous call,
// which a blocked process trivially guarantees. Concurrent outstanding
// requests (parallel fetches) must use NewWaiter instead.
func (p *Proc) CallWaiter() *Waiter { return &p.callWaiter }

// Wait blocks the owner until Deliver has been called, then returns the
// delivered value and resets the Waiter for reuse.
func (w *Waiter) Wait(reason string) any {
	for !w.ready {
		w.p.Park(reason)
	}
	w.ready = false
	v := w.val
	w.val = nil
	return v
}

// Ready reports whether a value has been delivered and not yet consumed.
func (w *Waiter) Ready() bool { return w.ready }

// Deliver stores the value and unparks the owner so it resumes at time at.
func (w *Waiter) Deliver(val any, at Time) {
	if w.ready {
		panic("sim: Waiter.Deliver called twice without Wait")
	}
	w.ready = true
	w.val = val
	w.p.UnparkAt(at)
}
