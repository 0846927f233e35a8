package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// randRule draws a rule with a random shape: each match dimension is
// independently present or wildcarded, prefixes span /0../32, and
// priorities collide on purpose (small range) to exercise name
// tie-breaking. Addresses come from a tiny pool so random keys actually
// hit the prefixes instead of testing the default path a thousand times.
func randRule(rng *rand.Rand, name string) *Rule {
	pfx := func() Prefix {
		bits := rng.Intn(34) - 1 // -1..32; invalids are clamped to valid below
		if bits < 0 {
			bits = 0
		}
		if bits == 0 {
			return Prefix{}
		}
		return Prefix{Addr: netpkt.IP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))), Bits: bits}
	}
	r := &Rule{Name: name, Priority: rng.Intn(8), Action: Allow}
	if rng.Intn(2) == 0 {
		r.Action = Deny
	}
	if rng.Intn(4) == 0 {
		r.Action = Chain
		r.Services = []seproto.ServiceType{seproto.ServiceIDS}
	}
	if rng.Intn(3) == 0 {
		r.Match.User = netpkt.MACFromUint64(uint64(1 + rng.Intn(5)))
	}
	if rng.Intn(2) == 0 {
		r.Match.SrcIP = pfx()
	}
	if rng.Intn(2) == 0 {
		r.Match.DstIP = pfx()
	}
	if rng.Intn(3) == 0 {
		r.Match.Proto = netpkt.ProtoTCP
		if rng.Intn(2) == 0 {
			r.Match.Proto = netpkt.ProtoUDP
		}
	}
	if rng.Intn(3) == 0 {
		r.Match.DstPort = uint16(80 + rng.Intn(4))
	}
	if rng.Intn(4) == 0 {
		r.Match.VLAN = uint16(1 + rng.Intn(3))
	}
	return r
}

// randKey draws a flow key from the same pools randRule draws matches
// from, so hits are common.
func randKey(rng *rand.Rand) flow.Key {
	return flow.Key{
		EthSrc:  netpkt.MACFromUint64(uint64(1 + rng.Intn(6))),
		EthType: netpkt.EtherTypeIPv4,
		IPSrc:   netpkt.IP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))),
		IPDst:   netpkt.IP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))),
		IPProto: netpkt.IPProto([]netpkt.IPProto{netpkt.ProtoTCP, netpkt.ProtoUDP}[rng.Intn(2)]),
		SrcPort: 50000,
		DstPort: uint16(80 + rng.Intn(5)),
		VLAN:    uint16(rng.Intn(4)),
	}
}

// checkEquivalent compares the compiled classifier against the linear
// reference scan for a batch of random keys.
func checkEquivalent(t *testing.T, tbl *Table, rng *rand.Rand, keys int, tag string) {
	t.Helper()
	for i := 0; i < keys; i++ {
		k := randKey(rng)
		got, want := tbl.Lookup(k), tbl.LookupLinear(k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: key %+v\ncompiled: %+v\nlinear:   %+v", tag, k, got, want)
		}
	}
}

// TestCompiledEquivalenceProperty is the core tentpole property: on
// randomized rule sets, the compiled tuple-space classifier and the
// linear first-match scan return identical decisions — through build,
// incremental adds, replacements, and removes.
func TestCompiledEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		tbl := NewTable(Allow)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			if err := tbl.Add(randRule(rng, fmt.Sprintf("r%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		checkEquivalent(t, tbl, rng, 200, fmt.Sprintf("trial %d build", trial))

		// Incremental churn: adds, same-name replacements, removes.
		for i := 0; i < 20; i++ {
			switch rng.Intn(3) {
			case 0:
				_ = tbl.Add(randRule(rng, fmt.Sprintf("c%03d", i)))
			case 1:
				_ = tbl.Add(randRule(rng, fmt.Sprintf("r%03d", rng.Intn(n))))
			case 2:
				tbl.Remove(fmt.Sprintf("r%03d", rng.Intn(n)))
			}
		}
		checkEquivalent(t, tbl, rng, 200, fmt.Sprintf("trial %d churn", trial))

		// Rebuild-from-scratch equals incrementally-maintained.
		c := newCompiled()
		for _, r := range tbl.rules {
			c.insert(r)
		}
		tbl.compiled = c
		checkEquivalent(t, tbl, rng, 100, fmt.Sprintf("trial %d rebuild", trial))
	}
}

// FuzzCompiledLookup drives the same equivalence property from fuzzed
// seeds; wired into the nightly fuzz smoke alongside the openflow codec
// targets.
func FuzzCompiledLookup(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(60))
	f.Add(int64(-7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(Deny)
		for i := 0; i < int(n%80)+1; i++ {
			_ = tbl.Add(randRule(rng, fmt.Sprintf("r%03d", i)))
		}
		for i := 0; i < 64; i++ {
			k := randKey(rng)
			got, want := tbl.Lookup(k), tbl.LookupLinear(k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("key %+v: compiled %+v != linear %+v", k, got, want)
			}
		}
	})
}

// TestCompiledRemoveEmptiesPartition exercises the partition scan-list
// bookkeeping: removing every rule of a shape must drop its partition
// from the scan, and re-adding must restore it.
func TestCompiledRemoveEmptiesPartition(t *testing.T) {
	tbl := NewTable(Allow)
	_ = tbl.Add(&Rule{Name: "p80", Priority: 9, Match: Match{DstPort: 80}, Action: Deny})
	k := key(1, netpkt.IP(1, 1, 1, 1), 80)
	if d := tbl.Lookup(k); d.Rule != "p80" {
		t.Fatalf("decision = %+v", d)
	}
	tbl.Remove("p80")
	if d := tbl.Lookup(k); d.Rule != "" || d.Action != Allow {
		t.Fatalf("after remove: %+v", d)
	}
	_ = tbl.Add(&Rule{Name: "p80b", Priority: 3, Match: Match{DstPort: 80}, Action: Deny})
	if d := tbl.Lookup(k); d.Rule != "p80b" {
		t.Fatalf("after re-add: %+v", d)
	}
}

// TestCompiledStaleMaxPrio checks the documented over-estimate: after
// removing a partition's highest-priority rule, the stale bound may cost
// an extra probe but lookups must stay correct.
func TestCompiledStaleMaxPrio(t *testing.T) {
	tbl := NewTable(Allow)
	_ = tbl.Add(&Rule{Name: "hi", Priority: 100, Match: Match{DstPort: 80}, Action: Deny})
	_ = tbl.Add(&Rule{Name: "lo", Priority: 1, Match: Match{DstPort: 80}, Action: Allow})
	_ = tbl.Add(&Rule{Name: "mid", Priority: 50, Match: Match{Proto: netpkt.ProtoTCP}, Action: Chain,
		Services: []seproto.ServiceType{seproto.ServiceIDS}})
	tbl.Remove("hi")
	k := key(1, netpkt.IP(1, 1, 1, 1), 80)
	if d := tbl.Lookup(k); d.Rule != "mid" {
		t.Fatalf("decision = %+v, want mid", d)
	}
}
