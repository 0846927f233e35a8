package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the result line.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	daemon := filepath.Join(dir, "livesecd")
	if out, err := exec.Command("go", "build", "-o", daemon, "livesec/cmd/livesecd").CombinedOutput(); err != nil {
		t.Fatalf("build livesecd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.1",
					"-trace", trace, "-livesecd", daemon, "-workdir", dir}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v", d.name, m)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "setup_churn", "-trace", "2"},
		{"-workload", "live_setup", "-seconds", "0.1"}, // no daemon binary
	} {
		var out bytes.Buffer
		if code := run(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want a failure and no result", args, code, out.String())
		}
	}
}

// TestSimulatedFingerprint checks the determinism contract: one seed
// reproduces its fingerprint exactly; another seed changes the inputs.
func TestSimulatedFingerprint(t *testing.T) {
	build := func(seed int64, timer *inspectTimer) (*simRun, error) { return buildChurn(seed, timer, true) }
	fp := func(seed int64, traced bool) string {
		it, err := simIteration(seed, build, traced, &inspectTimer{}, "")
		if err != nil {
			t.Fatal(err)
		}
		return it.fingerprint
	}
	a, b, c := fp(5, false), fp(5, true), fp(6, false)
	if a != b {
		t.Errorf("seed 5 untraced and traced differ:\n%s\n%s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 give the same fingerprint %s", a)
	}
}
