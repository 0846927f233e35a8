package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The catalogues below are the
// single source for what a run prints; BENCHMARK.json repeats them and
// a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; see README.md for the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"setups_per_s", "1/s", "higher"},
	{"delivered_pkts_per_s", "pkt/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// profileLayers are the layers a traced run's CPU samples are
// attributed to (see layers.go); each gets a "<layer>.self_frac" metric.
var profileLayers = []string{
	"sim", "link", "dataplane", "netpkt", "flow", "legacy",
	"service", "ids", "l7", "firewall", "seproto",
	"core", "policy", "intent", "loadbalance", "openflow",
	"monitor", "obs", "host", "runtime", "gen", "other",
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0 (for example the sim counters on live_setup).
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"sim.events", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.heap_max_depth", "count", "lower"},
		{"dataplane.hops", "count", "lower"},
		{"dataplane.tx_dropped", "count", "lower"},
		{"dataplane.microflow_hit_ratio", "ratio", "higher"},
		{"dataplane.microflow_invalidations", "count", "lower"},
		{"service.packets", "count", "lower"},
		{"service.drops", "count", "lower"},
		{"service.inspect_ns", "ns", "lower"},
		{"core.packet_ins", "count", "lower"},
		{"core.flow_mods", "count", "lower"},
		{"core.decision_hit_ratio", "ratio", "higher"},
		{"core.plan_hit_ratio", "ratio", "higher"},
		{"policy.write_p50_us", "us", "lower"},
		{"policy.write_p99_us", "us", "lower"},
		{"openflow.echo_p50_us", "us", "lower"},
		{"livesecd.setup_p50_ms", "ms", "lower"},
		{"livesecd.setup_p99_ms", "ms", "lower"},
		{"runtime.gc_frac", "frac", "lower"},
		{"runtime.allocs_per_event", "count", "lower"},
		{"runtime.bytes_per_event", "B", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"livesecd.cpu_s", "s", "lower"},
		{"livesecd.cpu_util", "frac", "lower"},
		{"gen.lag_p99_ms", "ms", "lower"},
		{"gen.cpu_util", "frac", "lower"},
		{"trace_overhead_frac", "frac", "lower"},
	}
	for _, l := range profileLayers {
		ms = append(ms, metricDef{l + ".self_frac", "frac", "lower"})
	}
	return ms
}()

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// wrong counts outputs that contradict the inputs (a decision the
	// policy forbids, a flow-mod for an unknown flow, a non-repeatable
	// simulation). Any wrong output fails the run.
	wrong int
	// lines are report lines printed before the metrics: the
	// determinism fingerprint and the workload-specific outcomes.
	lines []string
	e2e   map[string]float64
	layer map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// outcome reports a workload-specific metric that is not part of the
// JSON line: a simulated quantity, which a seed fixes exactly, or a
// metric only one workload has.
func (r *result) outcome(name string, v float64, unit string) {
	r.note("outcome %-26s %16s %s", name, fmtFloat(v), unit)
}

// jsonMetric is one entry of the final line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the report and, last, the JSON result line.
func (r *result) print(w io.Writer, name string, cfg config) error {
	defs, vals := endToEnd, r.e2e
	if cfg.traced {
		defs, vals = perLayer, r.layer
	}
	out := jsonResult{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s attempted no operation", name)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s seed %d trace %v\n", name, cfg.seed, cfg.traced)
	for _, l := range r.lines {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintf(bw, "check attempted=%d failed=%d wrong=%d fail_ratio=%s ratio\n",
		r.attempted, r.failed, r.wrong, fmtFloat(float64(r.failed)/float64(r.attempted)))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s did not measure %s", name, d.name)
		}
		fmt.Fprintf(bw, "metric %-34s %16s %s\n", d.name, fmtFloat(v), d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(line))
	return bw.Flush()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. It returns 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid, key string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, key)
}

// peakRSSMB is the VmHWM of a process in MiB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// fmtSpread renders a sample's minimum, quartiles and maximum.
func fmtSpread(xs []float64) string {
	q := append([]float64(nil), xs...)
	return fmt.Sprintf("min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g",
		quantile(q, 0), quantile(q, 0.25), quantile(q, 0.5), quantile(q, 0.75), quantile(q, 1))
}
