package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Layer attribution of CPU profile samples. Each sample goes to the
// layer of its innermost livesec/internal/<pkg> frame; a sample whose
// leaf is a Go runtime function goes to "runtime", one whose innermost
// frame of interest is the benchmark's own code (package main) to "gen",
// and everything else to "other".

const internalPrefix = "livesec/internal/"

// layerOf attributes one sample, given its stack leaf first.
func layerOf(stack []string) string {
	if len(stack) > 0 && isRuntime(stack[0]) {
		return "runtime"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if isProfileLayer(pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "gen"
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") ||
		strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func isProfileLayer(name string) bool {
	for _, l := range profileLayers {
		if l == name && l != "other" && l != "gen" && l != "runtime" {
			return true
		}
	}
	return false
}

// gcFrames mark a runtime sample as garbage collection or allocation.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
}

func isGC(stack []string) bool {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// layerShares is a profile's CPU time per layer.
type layerShares struct {
	samples int
	total   time.Duration
	by      map[string]time.Duration
	gc      time.Duration
}

func (s *layerShares) add(stack []string, d time.Duration) {
	l := layerOf(stack)
	s.samples++
	s.total += d
	s.by[l] += d
	if l == "runtime" && isGC(stack) {
		s.gc += d
	}
}

// into stores every layer's self share and the GC-plus-malloc share.
func (s *layerShares) into(m map[string]float64) {
	for _, l := range profileLayers {
		m[l+".self_frac"] = s.frac(s.by[l])
	}
	m["runtime.gc_frac"] = s.frac(s.gc)
}

func (s *layerShares) frac(d time.Duration) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(d) / float64(s.total)
}

// parseTraces reads `go tool pprof -traces` output: samples separated
// by dashed lines, each starting with its value and the leaf frame,
// followed by one caller per line.
func parseTraces(r io.Reader) (*layerShares, error) {
	s := &layerShares{by: map[string]time.Duration{}}
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			s.add(stack, value)
		}
		stack, value = nil, 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			// "<value> <leaf frame>"
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.samples == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return s, nil
}

// profileShares attributes the samples of CPU profiles written by
// runtime/pprof, merged by `go tool pprof`.
func profileShares(files []string) (*layerShares, error) {
	args := append([]string{"tool", "pprof", "-traces"}, files...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return parseTraces(&out)
}
