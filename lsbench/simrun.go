package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"livesec/internal/core"
	"livesec/internal/testbed"
)

// simOutcome is what one horizon of a simulated workload produced. All
// of it is simulated, so every iteration at one seed must agree exactly.
type simOutcome struct {
	deliveredPkts  uint64
	deliveredBytes uint64
	// setups counts flows whose first packet reached its destination.
	setups uint64
	// setupLat is each completed setup's first-packet latency, from the
	// client's send to the server's receipt, in simulated ms.
	setupLat                 []float64
	attempted, failed, wrong int
	// extra carries workload-specific fingerprint fields.
	extra string

	// Filled in by the runner.
	horizon time.Duration
	heapMax int

	// writeUS is host µs per policy write (policy_churn). It is a host
	// timing, so it stays out of the fingerprint.
	writeUS []float64
}

// latency is the q-quantile of the simulated setup latencies.
func (o simOutcome) latency(q float64) float64 {
	return quantile(append([]float64(nil), o.setupLat...), q)
}

// simRun is one built deployment, ready at its experiment epoch.
type simRun struct {
	net     *testbed.Net
	horizon time.Duration
	// start schedules the workload's load at the epoch.
	start func()
	// finish reads the outcome once the horizon has run.
	finish func() simOutcome
}

// simBuilder builds a deployment from the seed: build, Discover and
// warm-up. With timer set, the service elements' inspectors are wrapped
// to time each Inspect call.
type simBuilder func(seed int64, timer *inspectTimer) (*simRun, error)

// counters is a snapshot of the program's own counters.
type counters struct {
	events                  uint64
	ctrl                    core.Stats
	hops, txDropped         uint64
	microHits, microMisses  uint64
	microInvalidations      uint64
	sePackets, seDrops      uint64
	mallocs, allocBytes, gc uint64
	cpu                     time.Duration
}

func snapshot(n *testbed.Net) counters {
	c := counters{events: n.Processed(), ctrl: n.Controller.Stats()}
	for _, sw := range n.Switches {
		for _, p := range sw.Ports() {
			ps := sw.PortStats(p)
			c.hops += ps.RxPackets
			c.txDropped += ps.TxDropped
		}
		ms := sw.MicroflowStats()
		c.microHits += ms.Hits
		c.microMisses += ms.Misses
		c.microInvalidations += ms.Invalidations
	}
	for _, el := range n.Elements {
		st := el.Stats()
		c.sePackets += st.Packets
		c.seDrops += st.Drops
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes, c.gc = m.Mallocs, m.TotalAlloc, uint64(m.NumGC)
	c.cpu = processCPU()
	return c
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simIter is one iteration's measurements.
type simIter struct {
	setup, wall time.Duration
	before      counters
	after       counters
	out         simOutcome
	fingerprint string
	traced      bool
}

// minIters is the fewest iterations of each kind a run makes, so that
// set-up time and wall time are medians of several samples.
const minIters = 3

// runSim builds and runs the deployment repeatedly until the budget is
// spent. Every iteration uses the same seed, so each must reproduce the
// first one's fingerprint. A traced run alternates untraced iterations
// (the baseline for trace_overhead_frac and the counter metrics) with
// iterations under the CPU profile and the inspector timers, so drift
// in the host's speed affects both alike.
func runSim(cfg config, build simBuilder) (*result, error) {
	begin := time.Now()
	var iters []simIter
	var profiles []string
	defer func() { removeAll(profiles) }()
	timer := &inspectTimer{}
	untraced, traced := 0, 0
	for n := 0; time.Since(begin) < cfg.budget || untraced < minIters || (cfg.traced && traced < minIters); n++ {
		tracing := cfg.traced && n%2 == 1
		var prof string
		if tracing {
			prof = filepath.Join(cfg.workdir, fmt.Sprintf("lsbench-%d-%d.pprof", os.Getpid(), len(profiles)))
			profiles = append(profiles, prof)
			traced++
		} else {
			untraced++
		}
		it, err := simIteration(cfg.seed, build, tracing, timer, prof)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
	}
	return simResult(cfg, iters, timer, profiles)
}

func removeAll(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
}

func simIteration(seed int64, build simBuilder, traced bool, timer *inspectTimer, prof string) (simIter, error) {
	runtime.GC()
	var t *inspectTimer
	if traced {
		t = timer
	}
	t0 := time.Now()
	sr, err := build(seed, t)
	if err != nil {
		return simIter{}, fmt.Errorf("set up: %w", err)
	}
	setup := time.Since(t0)
	defer sr.net.Shutdown()
	before := snapshot(sr.net)
	var pf *os.File
	if prof != "" {
		if pf, err = os.Create(prof); err != nil {
			return simIter{}, err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return simIter{}, err
		}
	}
	t1 := time.Now()
	sr.start()
	err = sr.net.Run(sr.horizon)
	wall := time.Since(t1)
	if pf != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return simIter{}, fmt.Errorf("run horizon: %w", err)
	}
	after := snapshot(sr.net)
	out := sr.finish()
	out.horizon, out.heapMax = sr.horizon, sr.net.Eng.MaxDepth()
	it := simIter{setup: setup, wall: wall, before: before, after: after, out: out, traced: traced}
	it.fingerprint = fingerprint(after, out)
	return it, nil
}

// fingerprint renders the simulated outcome: event count, delivered
// packets and bytes, the controller's counters and the simulated
// first-packet latency percentiles.
func fingerprint(c counters, out simOutcome) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c.ctrl)
	return fmt.Sprintf("sim.events=%d delivered_pkts=%d delivered_bytes=%d setups=%d "+
		"sim_setup_p50_ms=%s sim_setup_p99_ms=%s packet_ins=%d flow_mods=%d heap_max=%d ctrl_stats_fnv=%016x %s",
		c.events, out.deliveredPkts, out.deliveredBytes, out.setups,
		fmtFloat(out.latency(0.5)), fmtFloat(out.latency(0.99)),
		c.ctrl.PacketIns, c.ctrl.FlowModsSent, out.heapMax, h.Sum64(), out.extra)
}

func simResult(cfg config, iters []simIter, timer *inspectTimer, profiles []string) (*result, error) {
	r := newResult()
	first := iters[0]
	r.note("fingerprint %s", first.fingerprint)
	for i, it := range iters[1:] {
		if it.fingerprint != first.fingerprint {
			r.wrong++
			r.note("NONDETERMINISTIC iteration %d: %s", i+1, it.fingerprint)
		}
	}
	out := first.out
	r.attempted, r.failed, r.wrong = out.attempted, out.failed, r.wrong+out.wrong
	horizonS := out.horizon.Seconds()
	r.outcome("sim_goodput_gbps", float64(out.deliveredBytes)*8/horizonS/1e9, "Gbps")
	r.outcome("sim_setup_p50_ms", out.latency(0.5), "ms")
	r.outcome("sim_setup_p99_ms", out.latency(0.99), "ms")
	r.outcome("sim_setup_samples", float64(len(out.setupLat)), "count")
	b, a := first.before, first.after
	r.outcome("decision_hit_ratio", ratio(a.ctrl.DecisionCacheHits-b.ctrl.DecisionCacheHits,
		a.ctrl.DecisionCacheMisses-b.ctrl.DecisionCacheMisses), "ratio")

	var setupTimes, walls, tracedWalls, allocs, bytes, gcs, cpuUtil []float64
	for _, it := range iters {
		setupTimes = append(setupTimes, it.setup.Seconds())
		if it.traced {
			tracedWalls = append(tracedWalls, it.wall.Seconds())
			continue
		}
		ev := float64(it.after.events - it.before.events)
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, float64(it.after.mallocs-it.before.mallocs)/ev)
		bytes = append(bytes, float64(it.after.allocBytes-it.before.allocBytes)/ev)
		gcs = append(gcs, float64(it.after.gc-it.before.gc))
		cpuUtil = append(cpuUtil, (it.after.cpu-it.before.cpu).Seconds()/it.wall.Seconds())
	}
	r.note("iterations untraced=%d traced=%d wall_s %s", len(walls), len(tracedWalls), fmtSpread(walls))
	wall := median(walls)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["wall_s"] = wall
	r.e2e["setups_per_s"] = float64(out.setups) / wall
	r.e2e["delivered_pkts_per_s"] = float64(out.deliveredPkts) / wall
	r.e2e["peak_rss_mb"] = rss

	if !cfg.traced {
		return r, nil
	}
	ev := a.events - b.events
	l := r.layer
	l["sim.events"] = float64(ev)
	l["sim.ns_per_event"] = wall * 1e9 / float64(ev)
	l["sim.heap_max_depth"] = float64(out.heapMax)
	l["dataplane.hops"] = float64(a.hops - b.hops)
	l["dataplane.tx_dropped"] = float64(a.txDropped - b.txDropped)
	l["dataplane.microflow_hit_ratio"] = ratio(a.microHits-b.microHits, a.microMisses-b.microMisses)
	l["dataplane.microflow_invalidations"] = float64(a.microInvalidations - b.microInvalidations)
	l["service.packets"] = float64(a.sePackets - b.sePackets)
	l["service.drops"] = float64(a.seDrops - b.seDrops)
	l["service.inspect_ns"] = timer.meanNS()
	l["core.packet_ins"] = float64(a.ctrl.PacketIns - b.ctrl.PacketIns)
	l["core.flow_mods"] = float64(a.ctrl.FlowModsSent - b.ctrl.FlowModsSent)
	l["core.decision_hit_ratio"] = ratio(a.ctrl.DecisionCacheHits-b.ctrl.DecisionCacheHits,
		a.ctrl.DecisionCacheMisses-b.ctrl.DecisionCacheMisses)
	l["core.plan_hit_ratio"] = ratio(a.ctrl.PlanCacheHits-b.ctrl.PlanCacheHits,
		a.ctrl.PlanCacheMisses-b.ctrl.PlanCacheMisses)
	l["policy.write_p50_us"] = quantile(append([]float64(nil), out.writeUS...), 0.5)
	l["policy.write_p99_us"] = quantile(append([]float64(nil), out.writeUS...), 0.99)
	l["openflow.echo_p50_us"] = 0
	l["livesecd.setup_p50_ms"] = 0
	l["livesecd.setup_p99_ms"] = 0
	l["runtime.allocs_per_event"] = median(allocs)
	l["runtime.bytes_per_event"] = median(bytes)
	l["runtime.gc_cycles"] = median(gcs)
	l["livesecd.cpu_s"] = 0
	l["livesecd.cpu_util"] = 0
	l["gen.lag_p99_ms"] = 0
	l["gen.cpu_util"] = median(cpuUtil)
	l["trace_overhead_frac"] = median(tracedWalls)/wall - 1
	shares, err := profileShares(profiles)
	if err != nil {
		return nil, err
	}
	shares.into(l)
	r.note("profile samples=%d", shares.samples)
	return r, nil
}

// warmUp advances a freshly discovered deployment in small steps until
// the controller knows every service element (their first heartbeat
// predates the switch handshakes, so the controller learns them from
// the next one), then one more step so the hosts' announcements settle.
func warmUp(n *testbed.Net) error {
	const step, limit = 10 * time.Millisecond, 2 * time.Second
	for waited := time.Duration(0); len(n.Controller.Elements()) < len(n.Elements); waited += step {
		if waited >= limit {
			return fmt.Errorf("controller knows %d of %d service elements after %v",
				len(n.Controller.Elements()), len(n.Elements), limit)
		}
		if err := n.Run(step); err != nil {
			return err
		}
	}
	return n.Run(step)
}
