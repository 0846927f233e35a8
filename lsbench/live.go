package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// live_setup: the real livesecd binary over loopback TCP. The benchmark
// emulates two OpenFlow switches (one connection each), each fronting
// liveHosts hosts, behind a transparent legacy fabric that carries LLDP
// between their uplinks. After the handshake, discovery and ARP
// learning, an open-loop phase offers fresh TCP flows at a fixed rate
// (latency) and a closed-loop phase keeps a fixed window of setups
// outstanding per connection (throughput).
const (
	liveHosts    = 64
	liveUplink   = 1000
	liveStarts   = 3    // daemon start-ups per run; setup_s is their median
	liveOpenRate = 2000 // packet-ins per second, open loop
	liveWindow   = 16   // outstanding setups per connection, closed loop
	// liveClosedRate sizes the closed-loop job: setups per second of the
	// closed loop's share of the budget.
	liveClosedRate = 7000
	liveBlocks     = 16 // the closed-loop job is timed in this many blocks
	// liveClosedLimit bounds the closed-loop job, so a stalled daemon
	// fails the run well inside its time limit.
	liveClosedLimit = 100 * time.Second
	// liveMinBlock keeps a short run's blocks long enough for the
	// profiler to sample.
	liveMinBlock   = 1000
	liveDeadline   = 2 * time.Second
	liveEchoes     = 200
	liveReadyLimit = 20 * time.Second
	liveDstPort    = 80
	// liveOpenShare is the share of the budget the open-loop phase gets;
	// the closed-loop phase takes the rest.
	liveOpenShare = 0.4
)

// tuple is a flow's 5-tuple (the protocol is always TCP).
type tuple struct {
	src, dst netpkt.IPv4Addr
	sp, dp   uint16
}

func (t tuple) reverse() tuple { return tuple{t.dst, t.src, t.dp, t.sp} }

type liveFlow struct {
	due, sent, done time.Time
	flowMods        int
	completed       bool
}

type liveHost struct {
	mac  netpkt.MAC
	ip   netpkt.IPv4Addr
	port uint32
}

// liveSwitch is one emulated OpenFlow switch.
type liveSwitch struct {
	idx   int
	dpid  uint64
	conn  openflow.Conn
	hosts []liveHost
}

// liveHarness is the load generator and checker for one daemon.
type liveHarness struct {
	sw [2]*liveSwitch

	mu       sync.Mutex
	flows    map[tuple]*liveFlow
	nextPort map[netpkt.IPv4Addr]uint16
	featured [2]bool
	lldp     [2]bool
	arpWant  map[netpkt.IPv4Addr]bool // requesters awaiting a proxied reply
	echoCh   chan time.Time
	// stray counts flow-mods and packet-outs for no issued flow.
	stray     int
	flowMods  int
	packetIns int
	// closedLeft counts the closed-loop setups still to issue; each
	// completion issues the next while it is positive.
	closedLeft  int
	closedFlows []*liveFlow
	completed   int
	rng         *rand.Rand
	onDone      chan struct{} // signalled (non-blocking) on every completion
}

func newLiveHarness(seed int64) *liveHarness {
	h := &liveHarness{
		flows:    map[tuple]*liveFlow{},
		nextPort: map[netpkt.IPv4Addr]uint16{},
		arpWant:  map[netpkt.IPv4Addr]bool{},
		echoCh:   make(chan time.Time, 1),
		rng:      rand.New(rand.NewSource(seed)),
		onDone:   make(chan struct{}, 1),
	}
	for i := range h.sw {
		s := &liveSwitch{idx: i, dpid: uint64(101 + i)}
		for p := 0; p < liveHosts; p++ {
			s.hosts = append(s.hosts, liveHost{
				mac:  netpkt.MACFromUint64(uint64(i+1)<<20 | uint64(p+1)),
				ip:   netpkt.IP(10, 60+byte(i), byte(p/250), byte(p%250+1)),
				port: uint32(p + 1),
			})
		}
		h.sw[i] = s
	}
	return h
}

// connect dials the daemon for both switches and starts their readers.
func (h *liveHarness) connect(addr string) error {
	for _, s := range h.sw {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		s.conn = openflow.NewNetConn(c)
	}
	for _, s := range h.sw {
		s := s
		s.conn.SetHandler(func(m openflow.Message) { h.handle(s, m) })
		s.conn.Send(&openflow.Hello{XID: 1})
	}
	return nil
}

func (h *liveHarness) close() {
	for _, s := range h.sw {
		if s.conn != nil {
			s.conn.Close()
		}
	}
}

// handle runs on the switch connection's reader goroutine.
func (h *liveHarness) handle(s *liveSwitch, m openflow.Message) {
	switch msg := m.(type) {
	case *openflow.FeaturesRequest:
		ports := make([]openflow.PortDesc, 0, liveHosts+1)
		for _, hst := range s.hosts {
			ports = append(ports, openflow.PortDesc{No: hst.port, MAC: netpkt.MACFromUint64(s.dpid<<8 | uint64(hst.port)), Name: fmt.Sprintf("lsw%d-p%d", s.idx, hst.port)})
		}
		ports = append(ports, openflow.PortDesc{No: liveUplink, MAC: netpkt.MACFromUint64(s.dpid<<8 | 0xff), Name: fmt.Sprintf("lsw%d-p%d", s.idx, liveUplink)})
		s.conn.Send(&openflow.FeaturesReply{XID: msg.XID, DPID: s.dpid, NTables: 1, Ports: ports})
		h.mu.Lock()
		h.featured[s.idx] = true
		h.mu.Unlock()
	case *openflow.EchoRequest:
		s.conn.Send(&openflow.EchoReply{XID: msg.XID, Data: msg.Data})
	case *openflow.EchoReply:
		select {
		case h.echoCh <- time.Now():
		default:
		}
	case *openflow.FlowMod:
		if msg.Command != openflow.FlowAdd {
			return
		}
		k := msg.Match.Key
		t := tuple{k.IPSrc, k.IPDst, k.SrcPort, k.DstPort}
		h.mu.Lock()
		h.flowMods++
		f := h.flows[t]
		if f == nil {
			f = h.flows[t.reverse()]
		}
		if f == nil {
			h.stray++
		} else {
			f.flowMods++
		}
		h.mu.Unlock()
	case *openflow.PacketOut:
		h.packetOut(s, msg)
	}
}

func (h *liveHarness) packetOut(s *liveSwitch, po *openflow.PacketOut) {
	pkt, err := netpkt.Unmarshal(po.Data)
	if err != nil {
		return
	}
	switch {
	case pkt.LLDP != nil:
		// The transparent fabric: a probe leaving one uplink surfaces at
		// the other switch's uplink.
		for _, a := range po.Actions {
			if out, ok := a.(openflow.ActionOutput); ok && out.Port == liveUplink {
				peer := h.sw[1-s.idx]
				peer.conn.Send(&openflow.PacketIn{XID: 2, BufferID: openflow.NoBuffer,
					InPort: liveUplink, Reason: openflow.ReasonNoMatch, Data: po.Data})
				h.mu.Lock()
				h.lldp[s.idx] = true
				h.mu.Unlock()
			}
		}
	case pkt.ARP != nil && pkt.ARP.Op == netpkt.ARPReply:
		h.mu.Lock()
		delete(h.arpWant, pkt.ARP.TargetIP)
		h.mu.Unlock()
	case pkt.TCP != nil && pkt.IP != nil:
		now := time.Now()
		t := tuple{pkt.IP.Src, pkt.IP.Dst, pkt.TCP.SrcPort, pkt.TCP.DstPort}
		h.mu.Lock()
		f := h.flows[t]
		if f == nil || f.completed {
			h.stray++
			h.mu.Unlock()
			return
		}
		f.completed, f.done = true, now
		h.completed++
		next := h.closedLeft > 0
		if next {
			h.closedLeft--
		}
		h.mu.Unlock()
		select {
		case h.onDone <- struct{}{}:
		default:
		}
		if next {
			nf := h.issue(s.idx, time.Now())
			h.mu.Lock()
			h.closedFlows = append(h.closedFlows, nf)
			h.mu.Unlock()
		}
	}
}

// issue raises a packet-in for a fresh flow from a host on switch i to
// a host on the other switch, due at due.
func (h *liveHarness) issue(i int, due time.Time) *liveFlow {
	h.mu.Lock()
	src := h.sw[i].hosts[h.rng.Intn(liveHosts)]
	dst := h.sw[1-i].hosts[h.rng.Intn(liveHosts)]
	sp := h.nextPort[src.ip] + 1024
	h.nextPort[src.ip]++
	t := tuple{src.ip, dst.ip, sp, liveDstPort}
	h.packetIns++
	h.mu.Unlock()
	data := netpkt.NewTCP(src.mac, dst.mac, src.ip, dst.ip, sp, liveDstPort, []byte("GET / HTTP/1.1\r\n")).Marshal()
	f := &liveFlow{due: due, sent: time.Now()}
	h.mu.Lock()
	h.flows[t] = f
	h.mu.Unlock()
	h.sw[i].conn.Send(&openflow.PacketIn{XID: 3, BufferID: openflow.NoBuffer,
		InPort: src.port, Reason: openflow.ReasonNoMatch, Data: data})
	return f
}

// waitFor polls cond (evaluated under the lock) until it holds.
func (h *liveHarness) waitFor(what string, deadline time.Time, cond func() bool) error {
	for {
		h.mu.Lock()
		ok := cond()
		h.mu.Unlock()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ready drives the handshake, LLDP discovery and ARP learning, and
// returns once the daemon has routed one flow in each direction.
func (h *liveHarness) ready(deadline time.Time) error {
	if err := h.waitFor("features handshake", deadline, func() bool { return h.featured[0] && h.featured[1] }); err != nil {
		return err
	}
	if err := h.waitFor("LLDP discovery", deadline, func() bool { return h.lldp[0] && h.lldp[1] }); err != nil {
		return err
	}
	// Every host announces itself, then asks for a host on the other
	// switch; a proxied ARP reply proves the daemon learned the target.
	for _, s := range h.sw {
		for _, hst := range s.hosts {
			s.conn.Send(&openflow.PacketIn{XID: 4, BufferID: openflow.NoBuffer, InPort: hst.port,
				Reason: openflow.ReasonNoMatch, Data: netpkt.NewARPRequest(hst.mac, hst.ip, hst.ip).Marshal()})
		}
	}
	h.mu.Lock()
	for _, s := range h.sw {
		for _, hst := range s.hosts {
			h.arpWant[hst.ip] = true
		}
	}
	h.mu.Unlock()
	for {
		h.mu.Lock()
		pending := make([]netpkt.IPv4Addr, 0, len(h.arpWant))
		for ip := range h.arpWant {
			pending = append(pending, ip)
		}
		h.mu.Unlock()
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for ARP learning (%d hosts unanswered)", len(pending))
		}
		for _, ip := range pending {
			h.askPeer(ip)
		}
		// A request whose target the daemon had not learned yet is
		// flooded instead of answered; ask again after a short wait.
		_ = h.waitFor("ARP replies", time.Now().Add(20*time.Millisecond), func() bool { return len(h.arpWant) == 0 })
	}
	// One routed flow per direction proves the topology is complete.
	for i := range h.sw {
		for {
			before := h.completedCount()
			h.issue(i, time.Now())
			err := h.waitFor("probe flow", time.Now().Add(50*time.Millisecond), func() bool { return h.completed > before })
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("daemon never routed a flow from switch %d", i)
			}
		}
	}
	return nil
}

func (h *liveHarness) completedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.completed
}

// askPeer sends an ARP request from the host with address ip for its
// counterpart on the other switch.
func (h *liveHarness) askPeer(ip netpkt.IPv4Addr) {
	for i, s := range h.sw {
		for p, hst := range s.hosts {
			if hst.ip == ip {
				peer := h.sw[1-i].hosts[p]
				s.conn.Send(&openflow.PacketIn{XID: 5, BufferID: openflow.NoBuffer, InPort: hst.port,
					Reason: openflow.ReasonNoMatch, Data: netpkt.NewARPRequest(hst.mac, hst.ip, peer.ip).Marshal()})
				return
			}
		}
	}
}

// daemon is one running livesecd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	out  *lineSink
	done chan struct{} // closed once the process has exited and its output is drained
}

// startDaemon execs livesecd on an ephemeral loopback port with the
// HTTP API off, and waits for it to report its listen address. The
// daemon prints one line per monitor event (about one per flow setup),
// so its output is drained continuously for its whole life.
func startDaemon(path string) (*daemon, error) {
	sink := &lineSink{addr: make(chan string, 1)}
	cmd := exec.Command(path, "-listen", "127.0.0.1:0", "-http", "")
	cmd.Stdout, cmd.Stderr = sink, sink
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, out: sink, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-sink.addr:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("livesecd exited: %s", sink.tail())
	case <-time.After(liveReadyLimit):
		d.stop()
		return nil, fmt.Errorf("livesecd reported no listen address: %s", sink.tail())
	}
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpu is the daemon's user plus system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + d.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// lineSink consumes the daemon's output: it picks out the listen
// address and keeps the last lines for error reports.
type lineSink struct {
	mu      sync.Mutex
	partial []byte
	last    []string
	lines   int
	addr    chan string
	found   bool
}

const listenBanner = "livesecd: OpenFlow on "

func (l *lineSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		l.lines++
		if !l.found && strings.HasPrefix(line, listenBanner) {
			l.found = true
			l.addr <- strings.TrimSpace(strings.TrimPrefix(line, listenBanner))
		}
		if len(l.last) == 8 {
			l.last = l.last[1:]
		}
		l.last = append(l.last, line)
	}
	return len(p), nil
}

func (l *lineSink) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.last, " | ")
}

func runLiveSetup(cfg config) (*result, error) {
	if cfg.daemon == "" {
		return nil, errors.New("no livesecd binary (-livesecd)")
	}
	var (
		d          *daemon
		h          *liveHarness
		setupTimes []float64
	)
	cleanup := func() {
		if h != nil {
			h.close()
		}
		if d != nil {
			d.stop()
		}
		h, d = nil, nil
	}
	defer cleanup()
	for i := 0; i < liveStarts; i++ {
		cleanup()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.daemon); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		h = newLiveHarness(cfg.seed)
		if err := h.connect(d.addr); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		if err := h.ready(t0.Add(liveReadyLimit)); err != nil {
			return nil, fmt.Errorf("set up: %w (daemon said: %s)", err, d.out.tail())
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	return measureLive(cfg, d, h, setupTimes)
}

func measureLive(cfg config, d *daemon, h *liveHarness, setupTimes []float64) (*result, error) {
	r := newResult()
	h.mu.Lock()
	modsBefore, insBefore := h.flowMods, h.packetIns
	h.mu.Unlock()

	// Echo round trips: the transport and event-loop hop alone.
	echoUS, err := h.echoes(liveEchoes)
	if err != nil {
		return nil, err
	}

	// Open loop: Poisson arrivals at a fixed rate, each timed from its
	// due time, so a stall in the daemon delays every later setup too.
	budgetS := cfg.budget.Seconds()
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	openN := max(int(liveOpenRate*liveOpenShare*budgetS), 1)
	open := make([]*liveFlow, 0, openN)
	lagMS := make([]float64, 0, openN)
	start := time.Now()
	off := time.Duration(0)
	for len(open) < openN {
		off += time.Duration(rng.ExpFloat64() / liveOpenRate * float64(time.Second))
		due := start.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		f := h.issue(rng.Intn(2), due)
		open = append(open, f)
		lagMS = append(lagMS, float64(f.sent.Sub(due))/float64(time.Millisecond))
	}
	if err := h.settle(open); err != nil {
		return nil, err
	}
	var latMS []float64
	h.mu.Lock()
	for _, f := range open {
		if f.completed {
			latMS = append(latMS, float64(f.done.Sub(f.due))/float64(time.Millisecond))
		}
	}
	h.mu.Unlock()

	// Closed loop: a fixed job of closedN setups with liveWindow
	// outstanding per connection, timed in liveBlocks blocks. A traced
	// run profiles every other block.
	closedN := max(int(liveClosedRate*(1-liveOpenShare)*budgetS), liveBlocks*liveMinBlock)
	block := closedN / liveBlocks
	closedN = block * liveBlocks
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self0 := processCPU()
	h.mu.Lock()
	h.closedLeft = closedN - 2*liveWindow
	base := h.completed
	h.mu.Unlock()
	closedStart := time.Now()
	var closedFlows []*liveFlow
	for i := range h.sw {
		for k := 0; k < liveWindow; k++ {
			closedFlows = append(closedFlows, h.issue(i, time.Now()))
		}
	}
	var blocks, tracedBlocks []float64
	var profiles []string
	defer func() { removeAll(profiles) }()
	// Blocks are timed between the moments the completion count crosses
	// each block boundary, so the closed loop, which never pauses, is
	// timed without gaps; starting and stopping the profiler falls
	// outside no block.
	prev := closedStart
	for b := 1; b <= liveBlocks; b++ {
		traced := cfg.traced && b%2 == 0
		var pf *os.File
		if traced {
			prof := filepath.Join(cfg.workdir, fmt.Sprintf("lsbench-%d-live-%d.pprof", os.Getpid(), b))
			profiles = append(profiles, prof)
			if pf, err = os.Create(prof); err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(pf); err != nil {
				pf.Close()
				return nil, err
			}
		}
		err := h.waitCompleted(base+b*block, closedStart.Add(liveClosedLimit))
		now := time.Now()
		if pf != nil {
			pprof.StopCPUProfile()
			pf.Close()
		}
		if err != nil {
			return nil, err
		}
		if traced {
			tracedBlocks = append(tracedBlocks, now.Sub(prev).Seconds())
		} else {
			blocks = append(blocks, now.Sub(prev).Seconds())
		}
		prev = now
	}
	closedWall := time.Since(closedStart)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self1 := processCPU()
	h.mu.Lock()
	closedFlows = append(closedFlows, h.closedFlows...)
	h.mu.Unlock()
	if err := h.settle(closedFlows); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}

	// Checks: every packet-in answered by its packet-out in time, with
	// flow-mods for its own 5-tuple; no flow-mod for an unknown flow.
	h.mu.Lock()
	modsPer := map[int]int{}
	for _, f := range append(open, closedFlows...) {
		r.attempted++
		if !f.completed || f.done.Sub(f.sent) > liveDeadline {
			r.failed++
			continue
		}
		modsPer[f.flowMods]++
		if f.flowMods == 0 {
			r.wrong++
		}
	}
	r.wrong += h.stray
	packetIns, flowMods := h.packetIns-insBefore, h.flowMods-modsBefore
	h.mu.Unlock()

	r.e2e["setup_s"] = median(setupTimes)
	r.e2e["wall_s"] = closedWall.Seconds()
	r.e2e["setups_per_s"] = float64(block) / median(blocks)
	r.e2e["delivered_pkts_per_s"] = float64(closedN) / closedWall.Seconds()
	r.e2e["peak_rss_mb"] = rss
	r.outcome("setup_p50_ms", quantile(latMS, 0.5), "ms")
	r.outcome("setup_p99_ms", quantile(latMS, 0.99), "ms")
	r.outcome("setup_samples", float64(len(latMS)), "count")
	r.outcome("open_rate", liveOpenRate, "1/s")
	r.outcome("closed_window", 2*liveWindow, "count")
	r.note("flow_mods_per_setup %v", modsPer)
	r.outcome("closed_setups", float64(closedN), "count")
	r.note("closed-loop block of %d setups: untraced=%d traced=%d block_s %s", block, len(blocks), len(tracedBlocks), fmtSpread(blocks))

	l := r.layer
	for _, m := range perLayer {
		l[m.name] = 0
	}
	l["core.packet_ins"] = float64(packetIns)
	l["core.flow_mods"] = float64(flowMods)
	l["openflow.echo_p50_us"] = quantile(echoUS, 0.5)
	l["livesecd.setup_p50_ms"] = quantile(latMS, 0.5)
	l["livesecd.setup_p99_ms"] = quantile(latMS, 0.99)
	l["livesecd.cpu_s"] = (cpu1 - cpu0).Seconds()
	l["livesecd.cpu_util"] = (cpu1 - cpu0).Seconds() / closedWall.Seconds()
	l["gen.lag_p99_ms"] = quantile(lagMS, 0.99)
	l["gen.cpu_util"] = (self1 - self0).Seconds() / closedWall.Seconds()
	if cfg.traced {
		l["trace_overhead_frac"] = median(tracedBlocks)/median(blocks) - 1
		shares, err := profileShares(profiles)
		if err != nil {
			return nil, err
		}
		shares.into(l)
		r.note("profile samples=%d", shares.samples)
	}
	return r, nil
}

// echoes times n sequential EchoRequest round trips on the first
// connection, in µs.
func (h *liveHarness) echoes(n int) ([]float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		h.sw[0].conn.Send(&openflow.EchoRequest{XID: uint32(1000 + i)})
		select {
		case t1 := <-h.echoCh:
			us = append(us, float64(t1.Sub(t0).Nanoseconds())/1e3)
		case <-time.After(liveDeadline):
			return nil, errors.New("echo request unanswered")
		}
	}
	return us, nil
}

// settle waits until every flow has completed or the deadline after its
// send has passed.
func (h *liveHarness) settle(flows []*liveFlow) error {
	deadline := time.Now().Add(liveDeadline)
	return h.waitFor("outstanding setups", deadline.Add(time.Second), func() bool {
		for _, f := range flows {
			if !f.completed && time.Now().Before(deadline) {
				return false
			}
		}
		return true
	})
}

// waitCompleted blocks until n setups have completed in total.
func (h *liveHarness) waitCompleted(n int, deadline time.Time) error {
	for h.completedCount() < n {
		select {
		case <-h.onDone:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("closed loop stalled at %d of %d setups", h.completedCount(), n)
		}
	}
	return nil
}
