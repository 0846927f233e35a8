package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/firewall"
	"livesec/internal/flow"
	"livesec/internal/host"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// inspect_bulk: long-lived paced TCP flows between source/sink server
// pairs on 10G edge switches, each chained by destination port to one
// service (IDS, L7 or firewall) whose element hosts sit behind 1G
// uplinks. Offered load exceeds the elements' capacity, so the data
// plane, the link queues and the element queues all work hard, while
// the controller sees one setup per flow.
const (
	bulkPairs        = 10
	bulkFlowsPerPair = 30
	bulkMinMbps      = 10
	bulkMaxMbps      = 40
	bulkMaxMinShare  = 0.3 // per-flow share of minimum-size segments, drawn in [0, this)
	bulkStartSpread  = 20 * time.Millisecond
	bulkHorizon      = 200 * time.Millisecond
	bulkAttacks      = 6
	bulkProbeEvery   = 10 * time.Millisecond
	// bulkBlockGrace is how long after an IDS verdict the ingress drop
	// rule may take to land: element → controller → ingress switch over
	// 200µs secure channels, with margin.
	bulkBlockGrace = 2 * time.Millisecond
	mtuPayload     = 1446
)

// bulkService is one destination port and the service it is chained to.
type bulkService struct {
	port     uint16
	svc      seproto.ServiceType
	share    float64 // of the flows
	switches int     // element host switches
	vms      int     // elements per switch
}

var bulkServices = []bulkService{
	{80, seproto.ServiceIDS, 0.6, 2, 3},
	{8080, seproto.ServiceL7, 0.1, 1, 2},
	{443, seproto.ServiceFW, 0.3, 1, 3},
}

const idsRules = `
alert tcp any any -> any any (msg:"EVIL"; content:"EVIL-BYTES"; sid:2; severity:200;)
`

var probeHead = []byte("EVIL-BYTES ")

type bulkFlow struct {
	src      *host.Host
	sinkIP   netpkt.IPv4Addr
	sp, port uint16
	interval time.Duration
	minShare float64
	ids      bool

	firstSent, firstRecv time.Duration
	received             bool
	detectedAt           time.Duration
	detected             bool
}

func newBulkInspector(svc seproto.ServiceType) (service.Inspector, error) {
	switch svc {
	case seproto.ServiceIDS:
		return service.NewIDS(idsRules)
	case seproto.ServiceL7:
		return service.NewL7(), nil
	default:
		// Permissive: the paced flows carry no handshake, so strict
		// conntrack would reject them as out of state.
		return firewall.New(firewall.Options{Permissive: true}), nil
	}
}

func runInspectBulk(cfg config) (*result, error) { return runSim(cfg, buildInspectBulk) }

func buildInspectBulk(seed int64, timer *inspectTimer) (*simRun, error) {
	rng := rand.New(rand.NewSource(seed))
	pt := policy.NewTable(policy.Allow)
	for _, s := range bulkServices {
		if err := pt.Add(&policy.Rule{
			Name: fmt.Sprintf("chain-%d", s.port), Priority: 10,
			Match:  policy.Match{Proto: netpkt.ProtoTCP, DstPort: s.port},
			Action: policy.Chain, Services: []seproto.ServiceType{s.svc},
		}); err != nil {
			return nil, err
		}
	}
	n := testbed.New(testbed.Options{Policies: pt})

	type pair struct {
		src, sink *host.Host
	}
	pairs := make([]pair, bulkPairs)
	for i := range pairs {
		srcSw := n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("src%d", i), 0, link.Rate10G)
		dstSw := n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("dst%d", i), 0, link.Rate10G)
		pairs[i] = pair{
			src:  n.AddServer(srcSw, fmt.Sprintf("s%d", i), netpkt.IP(10, 0, byte(i), 1)),
			sink: n.AddServer(dstSw, fmt.Sprintf("k%d", i), netpkt.IP(20, 0, byte(i), 1)),
		}
	}
	var idsElements []*service.Element
	for _, s := range bulkServices {
		for h := 0; h < s.switches; h++ {
			sw := n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("se-%d-%d", s.port, h), 0, link.Rate1G)
			for v := 0; v < s.vms; v++ {
				insp, err := newBulkInspector(s.svc)
				if err != nil {
					return nil, err
				}
				el := n.AddElement(sw, timer.wrap(insp), 0)
				if s.svc == seproto.ServiceIDS {
					idsElements = append(idsElements, el)
				}
			}
		}
	}

	// Flows: a seeded service, rate, minimum-size share and start offset
	// each. The service split is exact and each service's offered load
	// and mean minimum-size share are normalised, so the seed changes
	// which flow carries what, not how much work the horizon holds.
	nFlows := bulkPairs * bulkFlowsPerPair
	svcOf := make([]int, 0, nFlows)
	for si, s := range bulkServices {
		for k := 0; k < int(s.share*float64(nFlows)+0.5); k++ {
			svcOf = append(svcOf, si)
		}
	}
	rng.Shuffle(len(svcOf), func(i, j int) { svcOf[i], svcOf[j] = svcOf[j], svcOf[i] })
	flows := make([]*bulkFlow, 0, nFlows)
	byKey := make(map[uint64]*bulkFlow)
	starts := make([]time.Duration, 0, nFlows)
	mbps := make([]float64, 0, nFlows)
	var sumMbps, sumShare [3]float64
	var count [3]float64
	for pi, p := range pairs {
		for f := 0; f < bulkFlowsPerPair; f++ {
			si := svcOf[len(flows)]
			fl := &bulkFlow{
				src:      p.src,
				sinkIP:   p.sink.IP,
				sp:       uint16(30000 + pi*1000 + f),
				port:     bulkServices[si].port,
				minShare: rng.Float64() * bulkMaxMinShare,
				ids:      bulkServices[si].svc == seproto.ServiceIDS,
			}
			r := bulkMinMbps + rng.Float64()*(bulkMaxMbps-bulkMinMbps)
			mbps = append(mbps, r)
			sumMbps[si] += r
			sumShare[si] += fl.minShare
			count[si]++
			flows = append(flows, fl)
			byKey[flowID(p.src.IP, fl.sp)] = fl
			starts = append(starts, time.Duration(rng.Int63n(int64(bulkStartSpread))))
		}
	}
	for i, fl := range flows {
		si := svcOf[i]
		rate := mbps[i] * count[si] * (bulkMinMbps + bulkMaxMbps) / 2 / sumMbps[si]
		fl.interval = time.Duration(float64((mtuPayload+54)*8) / (rate * 1e6) * float64(time.Second))
		fl.minShare *= count[si] * bulkMaxMinShare / 2 / sumShare[si]
	}
	// Attacked flows: a handful of IDS-chained flows carry a signature
	// probe every bulkProbeEvery from a seeded start.
	var attacked []*bulkFlow
	var attackAt []time.Duration
	for _, i := range rng.Perm(len(flows)) {
		if len(attacked) == bulkAttacks {
			break
		}
		if flows[i].ids {
			attacked = append(attacked, flows[i])
			attackAt = append(attackAt, 50*time.Millisecond+time.Duration(rng.Int63n(int64(50*time.Millisecond))))
		}
	}

	var out simOutcome
	var probeSent []time.Duration // probe id → send time
	probeFlow := []*bulkFlow{}
	onSink := func(pkt *netpkt.Packet) {
		fl := byKey[flowID(pkt.IP.Src, pkt.TCP.SrcPort)]
		if fl == nil {
			return
		}
		now := n.Eng.Now()
		out.deliveredPkts++
		out.deliveredBytes += uint64(pkt.PayloadLen())
		if !fl.received {
			fl.received, fl.firstRecv = true, now
		}
		if id, ok := probeID(pkt.Payload); ok {
			// A probe sent after its flow was flagged must have met the
			// ingress drop rule.
			pf := probeFlow[id]
			if pf.detected && probeSent[id] > pf.detectedAt+bulkBlockGrace {
				out.failed++
				out.extra += fmt.Sprintf(" LEAKED_PROBE=%d", id)
			}
		}
	}
	for _, p := range pairs {
		for _, s := range bulkServices {
			p.sink.HandleTCP(s.port, onSink)
		}
	}
	for _, el := range idsElements {
		el.OnVerdict = func(k flow.Key, v service.Verdict) {
			if fl := byKey[flowID(k.IPSrc, k.SrcPort)]; fl != nil && !fl.detected {
				fl.detected, fl.detectedAt = true, n.Eng.Now()
			}
		}
	}

	if err := n.Discover(); err != nil {
		return nil, err
	}
	// Warm-up: every host announces itself so the controller and the
	// fabric know all attachment points before the flows start.
	for _, h := range n.Hosts {
		h.Send(netpkt.NewARPRequest(h.MAC, h.IP, h.IP))
	}
	for _, p := range pairs {
		p.src.Learn(p.sink.IP, p.sink.MAC)
	}
	if err := warmUp(n); err != nil {
		return nil, err
	}

	minPayload := []byte("DATA")
	start := func() {
		for i, fl := range flows {
			fl := fl
			n.Eng.Schedule(starts[i], func() {
				fl.firstSent = n.Eng.Now()
				n.Eng.Ticker(fl.interval, func() {
					if rng.Float64() < fl.minShare {
						fl.src.SendTCP(fl.sinkIP, fl.sp, fl.port, minPayload, 0)
					} else {
						fl.src.SendTCP(fl.sinkIP, fl.sp, fl.port, minPayload, mtuPayload)
					}
				})
				fl.src.SendTCP(fl.sinkIP, fl.sp, fl.port, minPayload, mtuPayload)
			})
		}
		for i, fl := range attacked {
			fl := fl
			n.Eng.Schedule(attackAt[i], func() {
				n.Eng.Ticker(bulkProbeEvery, func() {
					id := len(probeSent)
					probeSent = append(probeSent, n.Eng.Now())
					probeFlow = append(probeFlow, fl)
					fl.src.SendTCP(fl.sinkIP, fl.sp, fl.port, strconv.AppendInt(append([]byte(nil), probeHead...), int64(id), 10), 0)
				})
			})
		}
	}
	finish := func() simOutcome {
		for _, fl := range flows {
			out.attempted++
			if !fl.received {
				out.failed++
				continue
			}
			out.setups++
			out.setupLat = append(out.setupLat, float64(fl.firstRecv-fl.firstSent)/float64(time.Millisecond))
		}
		for _, fl := range attacked {
			out.attempted++
			if !fl.detected {
				out.failed++
			}
		}
		out.attempted += len(probeSent)
		out.extra += fmt.Sprintf(" probes=%d", len(probeSent))
		return out
	}
	return &simRun{net: n, horizon: bulkHorizon, start: start, finish: finish}, nil
}

// flowID keys a flow by its source address and port.
func flowID(ip netpkt.IPv4Addr, sp uint16) uint64 { return uint64(ip.Uint32())<<16 | uint64(sp) }

// probeID parses an injected signature probe's id from its payload.
func probeID(payload []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(payload, probeHead)
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(string(rest))
	return id, err == nil
}
