package policy

import (
	"fmt"
	"testing"

	"livesec/internal/netpkt"
)

// The lookup and iteration paths run on every decision-cache miss and
// every table walk; at million-rule scale an allocation per call turns
// into GC pressure that dwarfs the classification itself.

func allocTable(n int) *Table {
	tbl := NewTable(Allow)
	for i := 0; i < n; i++ {
		_ = tbl.Add(&Rule{
			Name:     fmt.Sprintf("r%05d", i),
			Priority: i % 32,
			Match:    Match{DstIP: CIDR(10, byte(i>>8), byte(i), 0, 24), DstPort: uint16(80 + i%8)},
			Action:   Deny,
		})
	}
	return tbl
}

func TestEachZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	tbl := allocTable(1000)
	var n int
	if allocs := testing.AllocsPerRun(50, func() {
		n = 0
		tbl.Each(func(*Rule) bool { n++; return true })
	}); allocs != 0 {
		t.Fatalf("Each allocs/run = %v, want 0 (Rules() copies; Each must not)", allocs)
	}
	if n != 1000 {
		t.Fatalf("Each visited %d rules", n)
	}
}

func TestCompiledLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	tbl := allocTable(1000)
	hit := key(1, netpkt.IP(10, 0, 7, 9), 81)
	miss := key(1, netpkt.IP(192, 168, 1, 1), 443)
	var d Decision
	if allocs := testing.AllocsPerRun(200, func() {
		d = tbl.Lookup(hit)
		d = tbl.Lookup(miss)
	}); allocs != 0 {
		t.Fatalf("compiled Lookup allocs/run = %v, want 0", allocs)
	}
	_ = d
}

func TestLinearLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	tbl := allocTable(200)
	k := key(1, netpkt.IP(10, 0, 0, 1), 80)
	var d Decision
	if allocs := testing.AllocsPerRun(200, func() { d = tbl.LookupLinear(k) }); allocs != 0 {
		t.Fatalf("linear Lookup allocs/run = %v, want 0", allocs)
	}
	_ = d
}
