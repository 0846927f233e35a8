package legacy

import (
	"testing"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// orderSink logs which sink received each frame, in delivery order.
type orderSink struct {
	id  int
	log *[]int
}

func (s orderSink) Receive(uint32, *netpkt.Packet) { *s.log = append(*s.log, s.id) }

// Floods go out in ascending port order from a cached order that
// AttachPort invalidates: a port attached after the first flood
// receives the next one, in its sorted place.
func TestFloodOrderCacheInvalidatedByAttach(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 0, "sw")
	var log []int
	attach := func(no uint32) {
		l := link.Connect(eng, sw, no, orderSink{id: int(no), log: &log}, 0, link.Params{})
		sw.AttachPort(no, l)
	}
	for _, no := range []uint32{7, 2, 9, 4} {
		attach(no)
	}
	bcast := frame(netpkt.MACFromUint64(0xa), netpkt.Broadcast)
	flood := func(want ...int) {
		t.Helper()
		log = log[:0]
		sw.Receive(2, bcast)
		if err := eng.RunAll(1 << 10); err != nil {
			t.Fatal(err)
		}
		if len(log) != len(want) {
			t.Fatalf("flood reached %v, want %v", log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("flood reached %v, want %v", log, want)
			}
		}
	}
	flood(4, 7, 9)
	flood(4, 7, 9) // served from the cached order
	attach(5)
	flood(4, 5, 7, 9)
	sw.Block(7)
	flood(4, 5, 9)
}

// countSink counts deliveries without allocating.
type countSink struct{ n *int }

func (s countSink) Receive(uint32, *netpkt.Packet) { *s.n++ }

// A flooded frame must not allocate: the port order is cached instead
// of rebuilt and sorted per frame.
func TestFloodZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 0, "sw")
	var n int
	for no := uint32(1); no <= 8; no++ {
		sw.AttachPort(no, link.Connect(eng, sw, no, countSink{&n}, 0, link.Params{}))
	}
	bcast := frame(netpkt.MACFromUint64(0xa), netpkt.Broadcast)
	flood := func() {
		sw.Receive(1, bcast)
		if err := eng.RunAll(1 << 10); err != nil {
			t.Fatal(err)
		}
	}
	flood() // warm: learn the source, build the order, grow the lanes
	if allocs := testing.AllocsPerRun(200, flood); allocs != 0 {
		t.Fatalf("flood allocs per frame = %v, want 0", allocs)
	}
	if n != 7*202 {
		t.Fatalf("deliveries = %d, want %d", n, 7*202)
	}
}
