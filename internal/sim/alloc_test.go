package sim

import (
	"testing"
	"time"
)

// Steady-state scheduling is the simulator's innermost loop: every
// timer and every Lane record goes through one push/pop cycle. With
// events held by value in the heap slice, a balanced push/pop workload
// must not allocate at all — the slice's retained capacity is the free
// list.
func TestSchedulePopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := NewEngine(1)
	fn := func() {}
	// Warm up: grow the heap slice to its working capacity.
	for i := 0; i < 256; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if err := e.Run(e.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Microsecond, fn)
		if err := e.Run(e.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule/pop allocs per cycle = %v, want 0", allocs)
	}
}

// A deep queue must also pop without allocating: sift-down moves values
// within the existing slice.
func TestDeepQueuePopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(time.Duration(i%61)*time.Microsecond, fn)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		ev := e.pop()
		e.push(ev)
	})
	if allocs != 0 {
		t.Fatalf("pop/push on deep queue allocs = %v, want 0", allocs)
	}
}
