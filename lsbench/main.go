// Command lsbench is the repository benchmark. It runs one seeded
// workload against the LiveSec program, checks the program's outputs,
// and prints a human-readable report followed, on the last line, by one
// JSON object holding the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1).
//
// The simulated workloads (inspect_bulk, setup_churn, policy_churn) drive
// the program through internal/testbed and the controller's public API;
// live_setup drives a real livesecd binary over loopback TCP. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	budget  time.Duration
	traced  bool
	daemon  string // livesecd binary (live_setup)
	workdir string // scratch directory for profiles
}

// workload is one named benchmark input set.
type workload struct {
	name string
	why  string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"inspect_bulk", "data-plane heavy open loop: paced TCP flows chained through IDS, L7 and firewall elements", runInspectBulk},
	{"setup_churn", "control-plane heavy open loop: Poisson short transactions on fresh 5-tuples against a few thousand rules", runSetupChurn},
	{"policy_churn", "setup_churn plus a fixed-rate stream of rule and intent writes on the controller", runPolicyChurn},
	{"live_setup", "the real livesecd daemon over loopback TCP: open-loop latency, closed-loop throughput", runLiveSetup},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one invocation, writing the report to stdout, and returns
// the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	daemon := fs.String("livesecd", "", "path to a built livesecd binary (live_setup)")
	workdir := fs.String("workdir", os.TempDir(), "directory for profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lsbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		daemon:  *daemon,
		workdir: *workdir,
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout, w.name, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lsbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
