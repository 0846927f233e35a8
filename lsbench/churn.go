package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/firewall"
	"livesec/internal/host"
	"livesec/internal/intent"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
)

// setup_churn and policy_churn: wired users on edge switches open short
// transactions (one request, a few response segments) on fresh 5-tuples
// to a set of services, against a policy table of per-user,
// per-service rules. Flow entries idle out quickly, so the flow tables
// churn. policy_churn adds a fixed-rate stream of rule and intent writes
// issued on the controller engine.
const (
	churnEdges        = 16
	churnUsersPerEdge = 16
	churnServices     = 8
	churnRate         = 6000 // transactions per simulated second
	churnHorizon      = 2 * time.Second
	churnDrain        = 150 * time.Millisecond // no new transactions this close to the horizon
	churnFlowIdle     = time.Second
	churnMaxResponses = 4
	churnRespPayload  = 1200
	// Base per-(user, service) rule actions, as shares.
	churnChainShare = 0.15
	churnDenyShare  = 0.05

	writeRate     = 100 // policy writes per simulated second (policy_churn)
	writeUsers    = 26  // users the writes touch (about a tenth)
	blockPriority = 1000
	intentPrio    = 500
	rulePriority  = 100
	// writeGuard: a user whose policy changes within this window does not
	// start a transaction, so the expected decision is never ambiguous.
	writeGuard = 5 * time.Millisecond
)

var churnPorts = [churnServices]uint16{80, 443, 25, 110, 143, 993, 8080, 8443}

// churnAction is the generator's model of one policy outcome.
type churnAction uint8

const (
	actAllow churnAction = iota
	actChainIDS
	actChainFW
	actDeny
)

func (a churnAction) rule(name string, prio int, m policy.Match) *policy.Rule {
	r := &policy.Rule{Name: name, Priority: prio, Match: m}
	switch a {
	case actAllow:
		r.Action = policy.Allow
	case actDeny:
		r.Action = policy.Deny
	case actChainIDS:
		r.Action, r.Services = policy.Chain, []seproto.ServiceType{seproto.ServiceIDS}
	case actChainFW:
		r.Action, r.Services = policy.Chain, []seproto.ServiceType{seproto.ServiceFW}
	}
	return r
}

// churnModel is the benchmark's oracle: the decision the policy table
// should produce for each (user, service), kept independently of the
// program.
type churnModel struct {
	base    [][churnServices]churnAction
	blocked []bool
	// intentSvc is the service a user's intent allows, -1 for none.
	intentSvc []int
}

func (m *churnModel) denies(u, s int) bool {
	switch {
	case m.blocked[u]:
		return true
	case m.intentSvc[u] == s:
		return false
	}
	return m.base[u][s] == actDeny
}

type churnTx struct {
	user, svc int
	sp        uint16
	want      int           // response segments requested
	due       time.Duration // from the epoch
	// sent and arrived are simulated times of the request's send and
	// its receipt at the server.
	sent, arrived time.Duration
	delivered     bool
	responses     int
	deny          bool
}

type writeKind uint8

const (
	writeBlock  writeKind = iota // add or remove a user-wide deny rule
	writeRule                    // rewrite one of the user's allowed rules
	writeIntent                  // upsert the user's intent
)

// churnWrite is one scheduled policy write.
type churnWrite struct {
	at   time.Duration
	user int
	kind writeKind
	svc  int
	act  churnAction
}

func runSetupChurn(cfg config) (*result, error) {
	return runSim(cfg, func(seed int64, t *inspectTimer) (*simRun, error) { return buildChurn(seed, t, false) })
}

func runPolicyChurn(cfg config) (*result, error) {
	return runSim(cfg, func(seed int64, t *inspectTimer) (*simRun, error) { return buildChurn(seed, t, true) })
}

func buildChurn(seed int64, timer *inspectTimer, writes bool) (*simRun, error) {
	rng := rand.New(rand.NewSource(seed))
	nUsers := churnEdges * churnUsersPerEdge
	model := &churnModel{
		base:      make([][churnServices]churnAction, nUsers),
		blocked:   make([]bool, nUsers),
		intentSvc: make([]int, nUsers),
	}
	for u := range model.base {
		model.intentSvc[u] = -1
		for s := range model.base[u] {
			switch x := rng.Float64(); {
			case x < churnDenyShare:
				model.base[u][s] = actDeny
			case x < churnDenyShare+churnChainShare/2:
				model.base[u][s] = actChainIDS
			case x < churnDenyShare+churnChainShare:
				model.base[u][s] = actChainFW
			}
		}
	}

	pt := policy.NewTable(policy.Allow)
	n := testbed.New(testbed.Options{Policies: pt, FlowIdle: churnFlowIdle})
	users := make([]*host.Host, 0, nUsers)
	for e := 0; e < churnEdges; e++ {
		sw := n.AddOvS(fmt.Sprintf("edge%d", e))
		for i := 0; i < churnUsersPerEdge; i++ {
			ip := netpkt.IP(10, 1, byte(e), byte(i+1))
			users = append(users, n.AddWiredUser(sw, fmt.Sprintf("u%d-%d", e, i), ip))
		}
	}
	servers := make([]*host.Host, churnServices)
	var srvSw *dataplane.Switch
	for s := range servers {
		if s%2 == 0 { // two services per server switch
			srvSw = n.AddSwitchUplink(dataplane.KindOvS, fmt.Sprintf("srv%d", s/2), 0, link.Rate10G)
		}
		servers[s] = n.AddServer(srvSw, fmt.Sprintf("svc%d", s), netpkt.IP(172, 16, 0, byte(s+1)))
	}
	for _, svc := range []seproto.ServiceType{seproto.ServiceIDS, seproto.ServiceFW} {
		sw := n.AddSwitchUplink(dataplane.KindOvS, "se-"+svc.String(), 0, link.Rate1G)
		for v := 0; v < 2; v++ {
			var insp service.Inspector
			if svc == seproto.ServiceIDS {
				ids, err := service.NewIDS(idsRules)
				if err != nil {
					return nil, err
				}
				insp = ids
			} else {
				insp = firewall.New(firewall.Options{Permissive: true})
			}
			n.AddElement(sw, timer.wrap(insp), 0)
		}
	}

	// The rule table: one rule per (user, service), plus a
	// lower-priority allow per service.
	var rules []*policy.Rule
	for u, h := range users {
		for s := range model.base[u] {
			rules = append(rules, model.base[u][s].rule(userRuleName(u, s), rulePriority, serviceMatch(h.MAC, servers[s].IP, s)))
		}
	}
	for s := range servers {
		rules = append(rules, actAllow.rule("svc-"+strconv.Itoa(s), 10, serviceMatch(netpkt.MAC{}, servers[s].IP, s)))
	}
	if err := pt.AddAll(rules); err != nil {
		return nil, err
	}

	// Transactions: Poisson arrivals of (user, service) pairs, a seeded
	// share of which repeat the user's previous service.
	repeatShare := 0.3 + 0.3*rng.Float64()
	var plan []churnWrite
	if writes {
		plan = planWrites(rng, nUsers)
	}
	guard := make([][]time.Duration, nUsers) // per user: write times
	for _, w := range plan {
		guard[w.user] = append(guard[w.user], w.at)
	}
	var txs []churnTx
	txByKey := make(map[uint64]int)
	lastSvc := make([]int, nUsers)
	nextPort := make([]uint16, nUsers)
	for u := range lastSvc {
		lastSvc[u] = rng.Intn(churnServices)
		nextPort[u] = 20000
	}
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / churnRate * float64(time.Second))
		if t >= churnHorizon-churnDrain {
			break
		}
		u := rng.Intn(nUsers)
		s := lastSvc[u]
		if rng.Float64() >= repeatShare {
			s = rng.Intn(churnServices)
		}
		want := 1 + rng.Intn(churnMaxResponses)
		if nearWrite(guard[u], t) {
			continue
		}
		lastSvc[u] = s
		txByKey[flowID(users[u].IP, nextPort[u])] = len(txs)
		txs = append(txs, churnTx{user: u, svc: s, sp: nextPort[u], want: want, due: t})
		nextPort[u]++
	}

	var out simOutcome
	for s, srv := range servers {
		srv := srv
		srv.HandleTCP(churnPorts[s], func(pkt *netpkt.Packet) {
			i, ok := txByKey[flowID(pkt.IP.Src, pkt.TCP.SrcPort)]
			if !ok {
				return
			}
			tx := &txs[i]
			out.deliveredPkts++
			out.deliveredBytes += uint64(pkt.PayloadLen())
			if tx.delivered {
				return
			}
			tx.delivered, tx.arrived = true, n.Eng.Now()
			for k := 0; k < tx.want; k++ {
				srv.SendTCP(pkt.IP.Src, pkt.TCP.DstPort, pkt.TCP.SrcPort, respPayload, churnRespPayload)
			}
		})
	}
	for _, h := range users {
		h := h
		h.OnPacket = func(pkt *netpkt.Packet) {
			if pkt.TCP == nil || pkt.IP == nil || pkt.IP.Dst != h.IP {
				return
			}
			i, ok := txByKey[flowID(h.IP, pkt.TCP.DstPort)]
			if !ok {
				return
			}
			out.deliveredPkts++
			out.deliveredBytes += uint64(pkt.PayloadLen())
			txs[i].responses++
		}
	}

	if err := n.Discover(); err != nil {
		return nil, err
	}
	for _, h := range n.Hosts {
		h.Send(netpkt.NewARPRequest(h.MAC, h.IP, h.IP))
	}
	for _, u := range users {
		for _, srv := range servers {
			u.Learn(srv.IP, srv.MAC)
		}
	}
	if err := warmUp(n); err != nil {
		return nil, err
	}

	var writeUS []float64
	start := func() {
		next := 0
		var gen func()
		gen = func() {
			tx := &txs[next]
			next++
			tx.sent, tx.deny = n.Eng.Now(), model.denies(tx.user, tx.svc)
			users[tx.user].SendTCP(servers[tx.svc].IP, tx.sp, churnPorts[tx.svc], reqPayload[tx.want], 0)
			if next < len(txs) {
				n.Eng.Schedule(txs[next].due-txs[next-1].due, gen)
			}
		}
		if len(txs) > 0 {
			n.Eng.Schedule(txs[0].due, gen)
		}
		base := n.CtrlEng().Now()
		for _, w := range plan {
			w := w
			n.CtrlEng().At(base+w.at, func() {
				t0 := time.Now()
				err := applyWrite(n, model, users, servers, w)
				writeUS = append(writeUS, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil {
					out.wrong++
					out.extra += " WRITE_ERROR=" + strconv.Quote(err.Error())
				}
			})
		}
	}
	finish := func() simOutcome {
		denied := 0
		for i := range txs {
			tx := &txs[i]
			out.attempted++
			switch {
			case tx.deny && tx.delivered:
				out.wrong++ // the policy forbids this flow
			case tx.deny:
				denied++
			case !tx.delivered || tx.responses < tx.want:
				out.failed++
			default:
				out.setups++
				out.setupLat = append(out.setupLat, float64(tx.arrived-tx.sent)/float64(time.Millisecond))
			}
		}
		out.writeUS = writeUS
		out.extra += fmt.Sprintf(" transactions=%d denied=%d writes=%d repeat_share=%s",
			len(txs), denied, len(plan), fmtFloat(repeatShare))
		return out
	}
	return &simRun{net: n, horizon: churnHorizon, start: start, finish: finish}, nil
}

var (
	respPayload = []byte("RSP")
	// reqPayload[k] asks for k response segments.
	reqPayload = func() [][]byte {
		p := make([][]byte, churnMaxResponses+1)
		for k := range p {
			p[k] = []byte("GET " + strconv.Itoa(k))
		}
		return p
	}()
)

func userRuleName(u, s int) string { return "u" + strconv.Itoa(u) + "-s" + strconv.Itoa(s) }

func serviceMatch(user netpkt.MAC, server netpkt.IPv4Addr, s int) policy.Match {
	return policy.Match{User: user, DstIP: policy.HostIP(server), Proto: netpkt.ProtoTCP, DstPort: churnPorts[s]}
}

// nearWrite reports whether a write to the user lands within writeGuard
// after t (writes sorted by time).
func nearWrite(writes []time.Duration, t time.Duration) bool {
	i := sort.Search(len(writes), func(i int) bool { return writes[i] >= t })
	return i < len(writes) && writes[i]-t <= writeGuard
}

// planWrites draws the policy_churn write stream: evenly spaced writes,
// each a block toggle (add or remove a user-wide deny rule), a rewrite
// of one of the user's allowed rules, or an intent upsert, on a small
// set of users.
func planWrites(rng *rand.Rand, nUsers int) []churnWrite {
	touched := rng.Perm(nUsers)[:writeUsers]
	period := time.Second / writeRate
	var plan []churnWrite
	for at := period; at < churnHorizon-churnDrain; at += period {
		w := churnWrite{at: at, user: touched[rng.Intn(len(touched))], svc: rng.Intn(churnServices)}
		switch x := rng.Float64(); {
		case x < 0.4:
			w.kind = writeBlock
		case x < 0.7:
			w.kind = writeRule
			w.act = []churnAction{actAllow, actChainIDS, actChainFW}[rng.Intn(3)]
		default:
			w.kind = writeIntent
			w.act = []churnAction{actAllow, actChainIDS, actChainFW}[rng.Intn(3)]
		}
		plan = append(plan, w)
	}
	return plan
}

// applyWrite performs one write on the controller's policy table or
// intent compiler and updates the model to match.
func applyWrite(n *testbed.Net, m *churnModel, users, servers []*host.Host, w churnWrite) error {
	u, mac := w.user, users[w.user].MAC
	switch w.kind {
	case writeBlock:
		name := "block-u" + strconv.Itoa(u)
		if m.blocked[u] {
			if !n.Controller.Policies().Remove(name) {
				return fmt.Errorf("remove %s: not installed", name)
			}
		} else if err := n.Controller.Policies().Add(actDeny.rule(name, blockPriority, policy.Match{User: mac})); err != nil {
			return err
		}
		m.blocked[u] = !m.blocked[u]
	case writeRule:
		if m.base[u][w.svc] == actDeny {
			return nil // denied pairs stay denied; the rewrite is a no-op
		}
		if err := n.Controller.Policies().Add(w.act.rule(userRuleName(u, w.svc), rulePriority,
			serviceMatch(mac, servers[w.svc].IP, w.svc))); err != nil {
			return err
		}
		m.base[u][w.svc] = w.act
	case writeIntent:
		it := intent.Intent{
			Name: "user-" + strconv.Itoa(u), Priority: intentPrio,
			Users:    []netpkt.MAC{mac},
			DstNets:  []policy.Prefix{policy.HostIP(servers[w.svc].IP)},
			DstPorts: []uint16{churnPorts[w.svc]},
			Proto:    netpkt.ProtoTCP,
		}
		r := w.act.rule("", 0, policy.Match{})
		it.Action, it.Services = r.Action, r.Services
		if _, _, err := n.Controller.Intents().Upsert(it); err != nil {
			return err
		}
		m.intentSvc[u] = w.svc
	}
	return nil
}
