package dpif

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/sim"
)

// WheelRevalidator ages out idle megaflows, the way ovs-vswitchd's
// revalidator threads do — without it, a long-running switch accumulates
// one megaflow per decision path it ever made. It works entirely through
// the Dpif seam (SetFlowHook/FlowDel), so the kernel-module and eBPF
// datapaths age out idle flows with exactly the same policy as the
// userspace one.
//
// Expiry runs on per-flow timers on the engine's timer wheel, not
// periodic full-table sweeps: every installed flow registers an idle
// deadline, and a deadline that fires finds the flow either active (hits advanced — the deadline is re-armed one
// idle timeout out, the mintmr-style lazy re-arm that keeps the packet
// path free of timer work) or idle (the flow is evicted). Work per
// interval is therefore proportional to the flows whose deadlines elapse —
// under churn, the expiring ones — never to the table size, which is what
// makes a million-flow table with active expiry affordable.
//
// Flow discovery is event-driven through the Dpif flow hook, so a flow is
// tracked from the instant the datapath installs it, whichever path
// installed it (upcall, FlowPut, negative flow). Flows that vanish by
// other means (FlowFlush, negative-flow TTL) are recognized dead at their
// next deadline and dropped from tracking.
//
// Each check charges costmodel.RevalFlowCheck (and evictions
// RevalFlowEvict) to the dedicated revalidator CPU, so experiments can
// report a revalidator duty cycle alongside the PMD's.
type WheelRevalidator struct {
	dp  Dpif
	eng *sim.Engine
	// CPU is the revalidator thread's CPU; its busy share over a window is
	// the revalidator duty cycle.
	CPU *sim.CPU
	// IdleTimeout is how long a flow may go without a hit before
	// eviction. With lazy re-arming the eviction lands between one and two
	// timeouts after the last hit, exactly like OVS's max-idle against a
	// coarse dump interval.
	IdleTimeout sim.Time

	expireFn func(any)
	free     []*flowRec
	running  bool

	// Stats.
	// Installs counts flows registered for tracking (every datapath
	// install plus flows present when the revalidator started).
	Installs uint64
	// Checks counts deadline firings that inspected a live flow.
	Checks uint64
	// Rearms counts checks that found the flow active and re-armed it.
	Rearms uint64
	// Evicted counts idle flows removed from the datapath.
	Evicted uint64
}

// flowRec is one tracked flow's timer state; records recycle through the
// revalidator's free list so steady-state churn allocates nothing.
type flowRec struct {
	f        Flow
	lastHits uint64
}

// StartWheelRevalidator launches incremental flow expiry over the datapath:
// existing flows are registered immediately, future ones as the datapath
// installs them. idleTimeout <= 0 defaults to costmodel.NegativeFlowTTL.
func StartWheelRevalidator(eng *sim.Engine, dp Dpif, idleTimeout sim.Time) *WheelRevalidator {
	if idleTimeout <= 0 {
		idleTimeout = costmodel.NegativeFlowTTL
	}
	r := &WheelRevalidator{
		dp:          dp,
		eng:         eng,
		CPU:         eng.NewCPU("revalidator"),
		IdleTimeout: idleTimeout,
		running:     true,
	}
	r.expireFn = r.onExpire
	dp.SetFlowHook(r.register)
	for _, f := range dp.FlowDump() {
		r.register(f)
	}
	return r
}

// Stop detaches the revalidator: the flow hook is cleared and every
// outstanding deadline, as it fires, releases its record without touching
// the datapath.
func (r *WheelRevalidator) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.dp.SetFlowHook(nil)
}

// Running reports whether the revalidator is still tracking flows.
func (r *WheelRevalidator) Running() bool { return r.running }

// register starts tracking one installed flow: record its current hit
// count and arm its idle deadline.
func (r *WheelRevalidator) register(f Flow) {
	r.Installs++
	rec := r.newRec()
	rec.f = f
	rec.lastHits = f.Entry.Hits
	r.eng.ScheduleArgAt(r.eng.Now()+r.IdleTimeout, r.expireFn, rec)
}

// onExpire is the deadline handler: drop dead flows from tracking, re-arm
// active ones, evict idle ones.
func (r *WheelRevalidator) onExpire(arg any) {
	rec := arg.(*flowRec)
	if !r.running {
		r.freeRec(rec)
		return
	}
	e := rec.f.Entry
	if e.Dead() {
		// Removed by other means (FlowFlush, negative-flow TTL, another
		// revalidator): nothing to do but stop tracking it.
		r.freeRec(rec)
		return
	}
	r.Checks++
	r.CPU.Consume(sim.User, costmodel.RevalFlowCheck)
	if e.Hits != rec.lastHits {
		rec.lastHits = e.Hits
		r.Rearms++
		r.eng.ScheduleArgAt(r.eng.Now()+r.IdleTimeout, r.expireFn, rec)
		return
	}
	r.CPU.Consume(sim.User, costmodel.RevalFlowEvict)
	if r.dp.FlowDel(rec.f) {
		r.Evicted++
	}
	r.freeRec(rec)
}

// newRec takes a record from the free list or allocates one.
func (r *WheelRevalidator) newRec() *flowRec {
	if n := len(r.free); n > 0 {
		rec := r.free[n-1]
		r.free = r.free[:n-1]
		return rec
	}
	return &flowRec{}
}

// freeRec recycles a record whose flow is no longer tracked.
func (r *WheelRevalidator) freeRec(rec *flowRec) {
	*rec = flowRec{}
	r.free = append(r.free, rec)
}
