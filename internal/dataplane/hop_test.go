package dataplane

import (
	"testing"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// A steady-state switch hop — Receive, forwarding delay, pipeline,
// output, link delivery — must not allocate.
func TestSwitchHopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	eng, sw, pkt := benchSwitch(false)
	hop := func() {
		sw.Receive(1, pkt)
		if err := eng.RunAll(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	hop() // warm the microflow cache, lanes and heap
	if allocs := testing.AllocsPerRun(500, hop); allocs != 0 {
		t.Fatalf("switch hop allocs = %v, want 0", allocs)
	}
	if got := sw.PortStats(2).TxPackets; got != 502 {
		t.Fatalf("port 2 TxPackets = %d, want 502", got)
	}
}

// recorder keeps every delivered frame.
type recorder struct{ got []*netpkt.Packet }

func (r *recorder) Receive(_ uint32, pkt *netpkt.Packet) { r.got = append(r.got, pkt) }

// A steering rewrite copies only the Packet struct: the frames sent on
// both ports carry their own rewritten Ethernet addresses, the caller's
// packet keeps its original ones, and the L3/L4 headers and payload are
// shared rather than cloned.
func TestApplyRewritesL2OnOwnCopy(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := New(eng, Config{DPID: 1, Kind: KindOvS})
	a, b := &recorder{}, &recorder{}
	la := link.Connect(eng, sw, 1, a, 0, link.Params{})
	lb := link.Connect(eng, sw, 2, b, 0, link.Params{})
	sw.AttachPort(1, la)
	sw.AttachPort(2, lb)
	origSrc, origDst := netpkt.MACFromUint64(0x10), netpkt.MACFromUint64(0x20)
	pkt := netpkt.NewTCP(origSrc, origDst, netpkt.IP(10, 0, 0, 1), netpkt.IP(10, 0, 0, 2),
		1234, 80, []byte("payload"))
	se, back := netpkt.MACFromUint64(0x30), netpkt.MACFromUint64(0x40)
	sw.apply(3, pkt, []openflow.Action{
		openflow.ActionSetDLDst{MAC: se},
		openflow.ActionSetDLSrc{MAC: sw.mac},
		openflow.ActionOutput{Port: 1},
		openflow.ActionSetDLDst{MAC: back},
		openflow.ActionOutput{Port: 2},
	})
	if err := eng.RunAll(1 << 10); err != nil {
		t.Fatal(err)
	}
	if pkt.EthSrc != origSrc || pkt.EthDst != origDst {
		t.Fatalf("caller's packet rewritten: src %v dst %v", pkt.EthSrc, pkt.EthDst)
	}
	if len(a.got) != 1 || len(b.got) != 1 {
		t.Fatalf("delivered %d/%d frames, want 1/1", len(a.got), len(b.got))
	}
	pa, pb := a.got[0], b.got[0]
	if pa == pkt || pb == pkt || pa == pb {
		t.Fatal("rewritten frames must be distinct copies")
	}
	if pa.EthDst != se || pa.EthSrc != sw.mac {
		t.Fatalf("port 1 frame: src %v dst %v, want %v %v", pa.EthSrc, pa.EthDst, sw.mac, se)
	}
	// The second rewrite starts from the emitted first copy, whose
	// source was already rewritten; that copy itself stays untouched.
	if pb.EthDst != back || pb.EthSrc != sw.mac {
		t.Fatalf("port 2 frame: src %v dst %v, want %v %v", pb.EthSrc, pb.EthDst, sw.mac, back)
	}
	if pa.IP != pkt.IP || pb.TCP != pkt.TCP || &pb.Payload[0] != &pkt.Payload[0] {
		t.Fatal("headers above L2 and the payload must be shared, not cloned")
	}
}
