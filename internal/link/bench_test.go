package link

import (
	"testing"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// discard is a Node that drops every delivered frame.
type discard struct{}

func (discard) Receive(uint32, *netpkt.Packet) {}

// hopLink returns an engine and the sending endpoint of a 1 GbE link
// with propagation delay, its far end wired to a discard sink.
func hopLink() (*sim.Engine, Endpoint) {
	eng := sim.NewEngine(1)
	var src discard
	l := Connect(eng, &src, 0, discard{}, 0, Params{BitsPerSec: Rate1G, Delay: 5 * time.Microsecond})
	return eng, l.From(&src)
}

// BenchmarkLinkHop measures one packet hop on a link: enqueue,
// serialization, propagation, and the delivery event. A burst of eight
// packets per iteration keeps the link's arrival lane several records
// deep, as on a loaded link. Reported per packet.
func BenchmarkLinkHop(b *testing.B) {
	eng, ep := hopLink()
	pkt := bulk(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		for k := 0; k < 8; k++ {
			ep.Send(pkt)
		}
		if err := eng.RunAll(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// A link hop is the simulator's innermost per-packet step; once the
// arrival lane's ring has grown to the burst depth it must not allocate.
func TestLinkHopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	eng, ep := hopLink()
	pkt := bulk(1500)
	burst := func() {
		for k := 0; k < 8; k++ {
			ep.Send(pkt)
		}
		if err := eng.RunAll(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	burst() // warm: grow the lane ring and the engine heap
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("link hop allocs per 8-packet burst = %v, want 0", allocs)
	}
	if got := ep.Stats().TxPackets; got != 8*202 {
		t.Fatalf("TxPackets = %d, want %d", got, 8*202)
	}
}
