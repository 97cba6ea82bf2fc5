package sched

import (
	"time"

	"pwsr/internal/fault"
)

// tickInjector is the gate's hook into the deterministic fault plane:
// consulted once per Pick (fault.OpTick at the registered site).
// Injected latency stalls the tick while the gate mutex is held — a
// slow certifier, not a wrong one; an injected error skips the tick
// entirely (the gate returns exec.PassTick before probing or granting
// anything), so the same pending set is re-picked on the next tick and
// the schedule's verdicts are untouched. Persistent tick faults
// therefore never corrupt state — they starve the run into the
// engine's pass budget — and chaos plans keep tick rules transient.
type tickInjector struct {
	inj  *fault.Injector
	site string
}

// tick evaluates this tick's occurrence; true means skip the tick.
func (t *tickInjector) tick() bool { return t.at(fault.OpTick) }

// at evaluates one occurrence of op at the registered site; true means
// an injected error (skip the step). Drain uses it to plant
// deterministic cancel points between drain steps (fault.OpDrain).
func (t *tickInjector) at(op fault.Op) bool {
	if t.inj == nil {
		return false
	}
	d := t.inj.Eval(fault.Point{Site: t.site, Op: op})
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	return d.Err != nil
}

// SetFaultInjector registers the deterministic fault injector the gate
// consults at each Pick (site tags the injection point, e.g. "gate").
// Call before the run; nil detaches.
func (g *OptimisticCertify) SetFaultInjector(inj *fault.Injector, site string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tinj = tickInjector{inj: inj, site: site}
}
