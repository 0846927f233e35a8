package sim

import (
	"fmt"
	"time"
)

// Lane is a FIFO stream of timed deliveries sharing one handler: a link
// direction's arrivals, a switch's forwarding pipeline, a service
// element's processing queue. Pushing onto a lane is equivalent to
// scheduling a closure that calls the handler with v — same firing
// time, same tie order, same Processed, Pending and MaxDepth — but the
// lane keeps at most one event in the engine heap (armed for its head
// record) and allocates nothing per push once its ring has grown to the
// working depth.
//
// The FIFO contract: every Push carries a time no earlier than the
// previous one's. Push reserves the engine's next sequence number, just
// as At would; when the head fires the lane re-arms the next record with
// that record's own reserved sequence, so (time, sequence) order across
// lanes and plain events is unchanged.
//
// A Lane is embedded by value in its owner and set up with Init; its
// ring is allocated lazily on the first Push. The owner must not be
// copied after Init.
type Lane[T any] struct {
	eng    *Engine
	fire   func() // l.fireHead, bound once in Init
	handle func(T)

	ring []laneRec[T] // circular; len is a power of two (or zero)
	head int
	n    int
}

// laneRec is one queued delivery.
type laneRec[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// Init binds the lane to eng and the handler it calls for each record,
// in push order, at the record's time.
func (l *Lane[T]) Init(eng *Engine, handle func(T)) {
	l.eng = eng
	l.handle = handle
	l.fire = l.fireHead
}

// Push queues v for delivery at absolute virtual time at. A time before
// Now is clamped to Now, as At does. A time before the lane's last
// queued record breaks the FIFO contract — a model bug — and panics.
func (l *Lane[T]) Push(at time.Duration, v T) {
	e := l.eng
	if at < e.now {
		at = e.now
	}
	e.seq++
	if l.n == 0 {
		if l.ring == nil {
			l.ring = make([]laneRec[T], 4)
		}
		l.ring[l.head] = laneRec[T]{at: at, seq: e.seq, v: v}
		l.n = 1
		e.push(event{at: at, seq: e.seq, fn: l.fire})
		return
	}
	mask := len(l.ring) - 1
	if tail := l.ring[(l.head+l.n-1)&mask].at; at < tail {
		panic(fmt.Sprintf("sim: lane push at %v before its tail at %v", at, tail))
	}
	if l.n == len(l.ring) {
		l.grow()
		mask = len(l.ring) - 1
	}
	l.ring[(l.head+l.n)&mask] = laneRec[T]{at: at, seq: e.seq, v: v}
	l.n++
	// The record waits behind the armed head: it is a logical event the
	// heap does not hold, so the engine counts it as backlog.
	e.backlog++
	if d := len(e.heap) + e.backlog; d > e.maxDepth {
		e.maxDepth = d
	}
}

// grow doubles the ring, unwrapping it so the head lands at index 0.
func (l *Lane[T]) grow() {
	next := make([]laneRec[T], 2*len(l.ring))
	k := copy(next, l.ring[l.head:])
	copy(next[k:], l.ring[:l.head])
	l.ring = next
	l.head = 0
}

// fireHead is the lane's engine callback: it pops the head record,
// re-arms the next one under its reserved sequence, then delivers. The
// re-arm happens before the handler runs so a Stop issued by the handler
// leaves the lane's remaining records queued for a later Run.
func (l *Lane[T]) fireHead() {
	r := &l.ring[l.head]
	v := r.v
	*r = laneRec[T]{} // release the value for the collector
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		l.eng.backlog--
		l.eng.push(event{at: next.at, seq: next.seq, fn: l.fire})
	}
	l.handle(v)
}
