package main

import (
	"bufio"
	"math"
	"strings"
	"testing"
)

// cannedTraces is `go tool pprof -traces` output trimmed to five samples.
const cannedTraces = `File: lsbench
Type: cpu
Time: Oct 17, 2026 at 7:01am (UTC)
Duration: 1.10s, Total samples = 100ms ( 9.09%)
-----------+-------------------------------------------------------
      40ms   livesec/internal/sim.(*Engine).siftDown
             livesec/internal/sim.(*Engine).pop (inline)
             livesec/internal/sim.(*Engine).Run
             livesec/internal/testbed.(*Net).Run
             main.simIteration
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             runtime.newobject
             livesec/internal/link.Endpoint.Send
             livesec/internal/dataplane.(*Switch).output
-----------+-------------------------------------------------------
      10ms   sort.insertionSortCmpFunc[go.shape.*uint8]
             slices.SortFunc[...]
             livesec/internal/policy.(*Table).ensureSorted
             livesec/internal/core.(*Controller).routeFlow
-----------+-------------------------------------------------------
      20ms   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess2
             livesec/internal/core.(*Controller).handlePacketIn
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             net.(*conn).Write
             bufio.(*Writer).Flush
             main.(*liveHarness).issue
-----------+-------------------------------------------------------
`

func TestParseTracesAttributesInnermostLayer(t *testing.T) {
	s, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	s.into(m)
	want := map[string]float64{
		"sim.self_frac":     0.4,
		"runtime.self_frac": 0.4, // the malloc sample and the map-access sample
		"policy.self_frac":  0.1, // sort frames belong to their innermost livesec caller
		"gen.self_frac":     0.1, // the benchmark's own code
		"core.self_frac":    0,
		"other.self_frac":   0,
		"runtime.gc_frac":   0.2, // only the sample under mallocgc
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	total := 0.0
	for _, l := range profileLayers {
		total += m[l+".self_frac"]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("self shares sum to %v, want 1", total)
	}
	if s.samples != 5 {
		t.Errorf("samples = %d, want 5", s.samples)
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Fatal("want an error for a profile without samples")
	}
}

// cannedTop is `go tool pprof -top` output. -top lists only each
// function's flat (leaf) time, so each line is a one-frame stack; the
// benchmark reads -traces instead, which keeps the callers the
// innermost-layer rule needs, but the per-function mapping is the same.
const cannedTop = `File: lsbench
Type: cpu
Showing nodes accounting for 2.60s, 86.67% of 3s total
      flat  flat%   sum%        cum   cum%
     0.62s 20.67% 20.67%      0.62s 20.67%  livesec/internal/sim.(*Engine).siftDown
     0.41s 13.67% 34.33%      0.90s 30.00%  runtime.mallocgc
     0.30s 10.00% 44.33%      0.30s 10.00%  runtime.scanobject
     0.25s  8.33% 52.67%      0.40s 13.33%  livesec/internal/dataplane.(*microflowCache).lookup
     0.20s  6.67% 59.33%      0.50s 16.67%  livesec/internal/netpkt.(*Packet).Clone
     0.18s  6.00% 65.33%      0.18s  6.00%  livesec/internal/link.Endpoint.Send.func1
     0.15s  5.00% 70.33%      0.15s  5.00%  internal/runtime/maps.(*Map).getWithKeySmall
     0.14s  4.67% 75.00%      0.14s  4.67%  livesec/internal/ids.(*Engine).Inspect
     0.12s  4.00% 79.00%      0.12s  4.00%  livesec/internal/core.(*Controller).routeFlow
     0.10s  3.33% 82.33%      0.10s  3.33%  livesec/internal/chaos.(*Injector).fire
     0.08s  2.67% 85.00%      0.08s  2.67%  main.buildInspectBulk.func3
     0.05s  1.67% 86.67%      0.05s  1.67%  sort.insertionSort
`

func TestLayerOfTopFunctions(t *testing.T) {
	want := []string{"sim", "runtime", "runtime", "dataplane", "netpkt", "link",
		"runtime", "ids", "core", "other", "gen", "other"}
	var got []string
	sc := bufio.NewScanner(strings.NewReader(cannedTop))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) > 0 && f[0] == "flat" {
			rows = true
			continue
		}
		if rows && len(f) == 6 {
			got = append(got, layerOf([]string{f[5]}))
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("layers\n got %v\nwant %v", got, want)
	}
}
