package main

import (
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/service"
)

// inspectTimer accumulates the host time service elements spend in
// Inspect. Traced runs only: the two clock reads per packet are part of
// trace_overhead_frac.
type inspectTimer struct {
	calls uint64
	ns    int64
}

func (t *inspectTimer) meanNS() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls)
}

// wrap returns insp itself when t is nil, else a timing wrapper that
// keeps the inspector's optional state-migration hooks visible to the
// element.
func (t *inspectTimer) wrap(insp service.Inspector) service.Inspector {
	if t == nil {
		return insp
	}
	ti := &timedInspector{Inspector: insp, t: t}
	sync, okS := insp.(service.StateSyncer)
	inst, okI := insp.(service.StateInstaller)
	if okS && okI {
		return &timedStatefulInspector{timedInspector: ti, StateSyncer: sync, StateInstaller: inst}
	}
	return ti
}

type timedInspector struct {
	service.Inspector
	t *inspectTimer
}

func (ti *timedInspector) Inspect(pkt *netpkt.Packet) []service.Verdict {
	start := time.Now()
	v := ti.Inspector.Inspect(pkt)
	ti.t.ns += time.Since(start).Nanoseconds()
	ti.t.calls++
	return v
}

type timedStatefulInspector struct {
	*timedInspector
	service.StateSyncer
	service.StateInstaller
}
