package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestScheduleAllocs guards the event loop's allocation behaviour: in steady
// state, Schedule and event dispatch reuse the heap and same-instant queue
// backing arrays, so a schedule/run cycle performs no per-event allocations
// beyond the caller's own closure.
func TestScheduleAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the queue capacities before measuring.
	for i := 0; i < 64; i++ {
		s.Schedule(s.Now()+Time(i%7), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		s.Schedule(s.Now(), fn)             // same-instant fast path
		s.Schedule(s.Now()+Microsecond, fn) // heap path
		s.Schedule(s.Now()+2*Microsecond, fn)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("schedule/dispatch cycle allocates %.2f objects per run, want 0", avg)
	}
}

// TestStopReleasesGoroutines guards the Stop leak fix: the coroutine
// goroutines of blocked processes must exit once a stopped Run returns,
// instead of staying suspended forever.
func TestStopReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := New()
		s.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
		s.Spawn("parked", func(p *Proc) {
			p.Park("never woken")
		})
		s.Schedule(5*Microsecond, s.Stop)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after stopped runs, started with %d", got, before)
	}
}

// TestDeadlockReleasesGoroutines: a deadlocked run must release its parked
// processes' goroutines when Run returns, like a stopped one.
func TestDeadlockReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := New()
		s.Spawn("stuck", func(p *Proc) { p.Park("forever") })
		if _, ok := s.Run().(*Deadlock); !ok {
			t.Fatal("expected deadlock")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after deadlocked runs, started with %d", got, before)
	}
}

// TestFailureReleasesGoroutines: a run that ends in a process panic must
// return that panic, with the panicking process's own stack, and release
// every other process — the parked ones and one that never started.
func TestFailureReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := New()
		started := false
		s.Spawn("parked-a", func(p *Proc) { p.Park("forever") })
		s.Spawn("parked-b", func(p *Proc) { p.Park("forever") })
		s.Spawn("panicker", func(p *Proc) {
			p.Sleep(Microsecond)
			panic("boom in process")
		})
		// Spawned at the panic's instant, behind the panicker's wake-up.
		s.Schedule(Microsecond, func() {
			s.Spawn("never-started", func(p *Proc) { started = true })
		})
		err := s.Run()
		if err == nil || !strings.Contains(err.Error(), "boom in process") {
			t.Fatalf("err = %v, want the process panic", err)
		}
		if !strings.Contains(err.Error(), "TestFailureReleasesGoroutines.func") {
			t.Errorf("failure stack does not reach the process body:\n%v", err)
		}
		if started {
			t.Error("a process spawned after the failure ran its body")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after failed runs, started with %d", got, before)
	}
}

// TestEventCallbackPanicBecomesFailure: a panic inside a scheduled callback
// must surface as Run's error — the event loop runs inside process
// coroutines, where an escaping panic would be pinned on the blocked process.
func TestEventCallbackPanicBecomesFailure(t *testing.T) {
	s := New()
	s.Spawn("bystander", func(p *Proc) {
		p.Sleep(10 * Microsecond)
	})
	s.Schedule(Microsecond, func() { panic("boom in event") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom in event") {
		t.Fatalf("err = %v, want the event panic", err)
	}
}

// TestStopBeforeFirstResume stops a run before a freshly spawned process ever
// gets control: its coroutine must still be released and its body skipped.
func TestStopBeforeFirstResume(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(0, s.Stop) // stops before the spawn's first runProc event fires
	s.Spawn("never-started", func(p *Proc) { ran = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("process body ran despite Stop before its first dispatch")
	}
}

// BenchmarkProcHandoff measures one process resume. In handoff, two processes
// sleep in alternation, so every wake-up switches to the other process; in
// self, one process sleeps alone and every wake-up resumes the sleeper
// itself without a switch. Steady state is zero allocs.
func BenchmarkProcHandoff(b *testing.B) {
	for _, c := range []struct {
		name  string
		procs int
	}{{"handoff", 2}, {"self", 1}} {
		b.Run(c.name, func(b *testing.B) {
			s := New()
			for k := 0; k < c.procs; k++ {
				n := (b.N + c.procs - 1 - k) / c.procs // resumes split over the procs
				s.Spawn("sleeper", func(p *Proc) {
					p.Sleep(Time(1 + k))
					for i := 1; i < n; i++ {
						p.Sleep(Time(c.procs))
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
