package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refLane is the closure-per-event path a Lane replaces: every push
// schedules its own heap event. It is the specification Lane must match
// in firing order, Processed, Pending and MaxDepth.
type refLane[T any] struct {
	eng    *Engine
	handle func(T)
}

func (r *refLane[T]) Push(at time.Duration, v T) {
	r.eng.At(at, func() { r.handle(v) })
}

// laneWorld is one engine driven by a seeded random program of lane
// pushes, plain At/Schedule events, Tickers and Stops, issued both
// between Run calls and from inside callbacks. Two worlds built from
// the same seed — one on Lane, one on refLane — must log the same
// history.
type laneWorld struct {
	e       *Engine
	rng     *rand.Rand
	push    []func(at time.Duration, id int)
	tail    []time.Duration // latest (clamped) push time per lane
	cancels []func()
	nextID  int
	log     []string
	// draining stops new Tickers so the final drain terminates.
	draining bool
}

const worldLanes = 3

func newLaneWorld(seed int64, useRef bool) *laneWorld {
	w := &laneWorld{e: NewEngine(1), rng: rand.New(rand.NewSource(seed))}
	w.tail = make([]time.Duration, worldLanes)
	for i := 0; i < worldLanes; i++ {
		i := i
		handle := func(id int) {
			w.record("lane%d:%d", i, id)
			w.actions()
		}
		if useRef {
			r := &refLane[int]{eng: w.e, handle: handle}
			w.push = append(w.push, r.Push)
		} else {
			l := new(Lane[int])
			l.Init(w.e, handle)
			w.push = append(w.push, l.Push)
		}
	}
	return w
}

func (w *laneWorld) record(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.e.Now())+fmt.Sprintf(format, args...))
}

// actions performs zero to two random operations, fewer as the program
// grows so every run terminates.
func (w *laneWorld) actions() {
	n := w.rng.Intn(3)
	if w.nextID > 600 {
		n = w.rng.Intn(2)
	}
	for ; n > 0; n-- {
		w.act()
	}
}

func (w *laneWorld) act() {
	w.nextID++
	id := w.nextID
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	switch op := w.rng.Intn(20); {
	case op < 10:
		// Lane push at or after the lane's tail. Tails in the past are
		// clamped to Now by both implementations.
		i := w.rng.Intn(worldLanes)
		at := w.tail[i] + us(w.rng.Intn(3))
		if at < w.e.Now() {
			w.tail[i] = w.e.Now()
		} else {
			w.tail[i] = at
		}
		w.push[i](at, id)
	case op < 13:
		w.e.At(w.e.Now()+us(w.rng.Intn(4)-1), func() {
			w.record("at:%d", id)
			w.actions()
		})
	case op < 16:
		w.e.Schedule(us(w.rng.Intn(4)-1), func() {
			w.record("sched:%d", id)
			w.actions()
		})
	case op < 17:
		if len(w.cancels) < 3 && !w.draining {
			w.cancels = append(w.cancels, w.e.Ticker(us(1+w.rng.Intn(3)), func() {
				w.record("tick:%d", id)
			}))
		}
	case op < 18:
		if len(w.cancels) > 0 {
			k := w.rng.Intn(len(w.cancels))
			w.cancels[k]()
			w.cancels = append(w.cancels[:k], w.cancels[k+1:]...)
		}
	case op < 19:
		if w.rng.Intn(3) == 0 {
			w.record("stop:%d", id)
			w.e.Stop()
		}
	default:
		// A burst on one lane at a single timestamp: same-time ties
		// between records of one lane and against other events.
		i := w.rng.Intn(worldLanes)
		at := w.tail[i]
		if at < w.e.Now() {
			at = w.e.Now()
		}
		w.tail[i] = at
		for k := 0; k < 3; k++ {
			w.push[i](at, id*10+k)
		}
	}
}

func (w *laneWorld) state(err error) string {
	return fmt.Sprintf("err=%v now=%v processed=%d pending=%d maxdepth=%d",
		err, w.e.Now(), w.e.Processed, w.e.Pending(), w.e.MaxDepth())
}

// TestPropertyLaneMatchesClosurePerEvent drives Lane and the
// closure-per-event reference with the same random programs: setup
// actions, then a series of Run calls whose horizons land before, on
// and past pending events, resuming after horizons and after Stops,
// and a final RunAll drain. After every call the histories, errors,
// clocks, Processed, Pending and MaxDepth must agree.
func TestPropertyLaneMatchesClosurePerEvent(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		lane, ref := newLaneWorld(seed, false), newLaneWorld(seed, true)
		worlds := []*laneWorld{lane, ref}
		for _, w := range worlds {
			for k := 0; k < 8; k++ {
				w.act()
			}
		}
		check := func(step string, errs [2]error) {
			t.Helper()
			if a, b := lane.state(errs[0]), ref.state(errs[1]); a != b {
				t.Fatalf("seed %d %s: lane %s, reference %s", seed, step, a, b)
			}
			if a, b := strings.Join(lane.log, "\n"), strings.Join(ref.log, "\n"); a != b {
				t.Fatalf("seed %d %s: histories differ\nlane:\n%s\nreference:\n%s", seed, step, a, b)
			}
		}
		check("setup", [2]error{})
		hr := rand.New(rand.NewSource(seed))
		for step := 0; step < 40; step++ {
			horizon := lane.e.Now() + time.Duration(hr.Intn(4))*time.Microsecond
			if hr.Intn(3) == 0 && len(lane.e.heap) > 0 {
				horizon = lane.e.heap[0].at // exactly on the next event
			}
			var errs [2]error
			for i, w := range worlds {
				errs[i] = w.e.Run(horizon)
			}
			check(fmt.Sprintf("run %d to %v", step, horizon), errs)
			if hr.Intn(4) == 0 {
				for _, w := range worlds {
					w.act()
				}
				check(fmt.Sprintf("act after run %d", step), [2]error{})
			}
		}
		for _, w := range worlds {
			w.draining = true
			for _, c := range w.cancels {
				c()
			}
		}
		for i := 0; i < 1000 && ref.e.Pending() > 0; i++ {
			var errs [2]error
			for i, w := range worlds {
				errs[i] = w.e.RunAll(1 << 16)
			}
			check("drain", errs)
		}
		if lane.e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after drain", seed, lane.e.Pending())
		}
	}
}

// The lane holds one heap event however deep its backlog, while
// Pending and MaxDepth keep counting every record.
func TestLaneArmsOneHeapEvent(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var l Lane[int]
	l.Init(e, func(v int) { got = append(got, v) })
	for i := 0; i < 100; i++ {
		l.Push(time.Duration(i/10)*time.Microsecond, i)
	}
	if len(e.heap) != 1 || e.Pending() != 100 || e.MaxDepth() != 100 {
		t.Fatalf("heap=%d pending=%d maxdepth=%d, want 1/100/100",
			len(e.heap), e.Pending(), e.MaxDepth())
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d = %d, want push order", i, v)
		}
	}
	if len(got) != 100 || e.Pending() != 0 || e.Processed != 100 {
		t.Fatalf("delivered %d, pending %d, processed %d", len(got), e.Pending(), e.Processed)
	}
}

// Pushing a record earlier than the lane's tail would reorder the
// lane's deliveries: a model bug, reported by a panic.
func TestLanePushBeforeTailPanics(t *testing.T) {
	e := NewEngine(1)
	var l Lane[int]
	l.Init(e, func(int) {})
	l.Push(5*time.Microsecond, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("push before the lane tail did not panic")
		}
	}()
	l.Push(4*time.Microsecond, 2)
}

// Once the ring has grown to the working depth, a push/fire cycle must
// not allocate.
func TestLanePushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := NewEngine(1)
	var l Lane[*int]
	l.Init(e, func(*int) {})
	v := new(int)
	for i := 0; i < 64; i++ {
		l.Push(e.Now()+time.Microsecond, v)
	}
	if err := e.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Push(e.Now()+time.Microsecond, v)
		l.Push(e.Now()+time.Microsecond, v)
		if err := e.Run(e.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("lane push/fire allocs per cycle = %v, want 0", allocs)
	}
}
