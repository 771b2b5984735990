package experiments

import (
	"ovsxdp/internal/measure"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Figure 9: forwarding rate and CPU consumption for P2P, PVP, and PCP
// loopbacks, at 1 and 1,000 flows, across the kernel, AF_XDP, and DPDK
// datapaths. Paper anchors are approximate bar heights; the reproduction
// targets the orderings and CPU-category shapes (Table 4 holds the exact
// CPU numbers).

func init() {
	register(Experiment{ID: "fig9a", Title: "P2P forwarding rate and CPU (Figure 9a)", Run: runFig9a})
	register(Experiment{ID: "fig9b", Title: "PVP forwarding rate and CPU (Figure 9b)", Run: runFig9b})
	register(Experiment{ID: "fig9c", Title: "PCP forwarding rate and CPU (Figure 9c)", Run: runFig9c})
	register(Experiment{ID: "table4", Title: "CPU use by category at 1000 flows (Table 4)", Run: runTable4})
}

// fig9Probe builds a fresh bed per trial. When last is non-nil it records
// the most recent bed, so callers can read its perf counters afterwards.
func fig9Probe(p Profile, mk func() *Bed, last **Bed) measure.Probe {
	return func(rate float64) measure.ProbeResult {
		bed := mk()
		if last != nil {
			*last = bed
		}
		return RunProbe(bed, rate, p.Warmup, p.Window)
	}
}

type fig9Result struct {
	rate  float64
	usage sim.Usage
	perf  []perf.ThreadStats
}

// addPerfRows appends the opt-in per-stage attribution: for each processing
// thread of the case's final probe, the amortized virtual-time cost of every
// datapath stage (the pmd-perf-show breakdown in experiment-report form).
func addPerfRows(r *Report, name string, threads []perf.ThreadStats) {
	for _, t := range threads {
		for st := perf.StageRx; st < perf.NumStages; st++ {
			if t.Cycles[st] == 0 {
				continue
			}
			r.Add(name+" "+t.Name+" "+st.String(), t.CyclesPerPacket(st), 0, "ns/pkt")
		}
	}
}

func runP2PCase(rc RunConfig, kind DPKind, flows int, hiPPS float64) fig9Result {
	p := rc.Profile
	cfg := rc.bed(kind, flows)
	var last *Bed
	rate, res, _ := measure.LosslessRate(searchConfig(p, hiPPS),
		fig9Probe(p, func() *Bed { return NewP2PBed(cfg) }, &last))
	out := fig9Result{rate: rate, usage: res.Usage}
	if p.PerfStages && last != nil {
		out.perf = last.DP.PerfStats()
	}
	return out
}

func runFig9a(rc RunConfig) *Report {
	r := &Report{ID: "fig9a", Title: "P2P max lossless rate (64B) and CPU"}
	cases := []struct {
		kind  DPKind
		flows int
		paper float64 // approximate bar heights (Mpps)
	}{
		{KindKernel, 1, 1.9},
		{KindKernel, 1000, 4.8},
		{KindAFXDP, 1, 7.1},
		{KindAFXDP, 1000, 5.7},
		{KindDPDK, 1, 11.0},
		{KindDPDK, 1000, 9.0},
	}
	for _, c := range cases {
		res := runP2PCase(rc, c.kind, c.flows, 40e6)
		name := c.kind.String() + flowsSuffix(c.flows)
		r.Add(name, measure.Mpps(res.rate), c.paper, "Mpps")
		r.Add(name+" cpu", res.usage.Total(), 0, "HT")
		addPerfRows(r, name, res.perf)
	}
	r.AddNote("orderings to hold: dpdk > afxdp > kernel@1flow; kernel@1000 > kernel@1 (RSS)")
	return r
}

func runPVPCase(rc RunConfig, kind DPKind, vd VDevKind, flows int) fig9Result {
	p := rc.Profile
	cfg := rc.bed(kind, flows)
	cfg.VDev = vd
	var last *Bed
	rate, res, _ := measure.LosslessRate(searchConfig(p, 20e6),
		fig9Probe(p, func() *Bed { return NewPVPBed(cfg) }, &last))
	out := fig9Result{rate: rate, usage: res.Usage}
	if p.PerfStages && last != nil {
		out.perf = last.DP.PerfStats()
	}
	return out
}

func runFig9b(rc RunConfig) *Report {
	r := &Report{ID: "fig9b", Title: "PVP max lossless rate (64B) and CPU"}
	cases := []struct {
		kind  DPKind
		vd    VDevKind
		flows int
		paper float64
	}{
		{KindKernel, VDevTap, 1, 0.9},
		{KindKernel, VDevTap, 1000, 2.0},
		{KindAFXDP, VDevTap, 1, 1.1},
		{KindAFXDP, VDevTap, 1000, 1.0},
		{KindAFXDP, VDevVhost, 1, 2.5},
		{KindAFXDP, VDevVhost, 1000, 2.2},
		{KindDPDK, VDevVhost, 1, 3.5},
		{KindDPDK, VDevVhost, 1000, 3.1},
	}
	for _, c := range cases {
		res := runPVPCase(rc, c.kind, c.vd, c.flows)
		name := c.kind.String() + "+" + c.vd.String() + flowsSuffix(c.flows)
		r.Add(name, measure.Mpps(res.rate), c.paper, "Mpps")
		r.Add(name+" cpu", res.usage.Total(), 0, "HT")
		addPerfRows(r, name, res.perf)
	}
	r.AddNote("orderings: vhostuser > tap everywhere; afxdp+vhost ~ 0.7x dpdk+vhost")
	return r
}

func runFig9c(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "fig9c", Title: "PCP max lossless rate (64B) and CPU"}
	cases := []struct {
		mode  PCPMode
		flows int
		paper float64
	}{
		{PCPKernel, 1, 1.2},
		{PCPKernel, 1000, 1.5},
		{PCPAFXDPRedir, 1, 3.0},
		{PCPAFXDPRedir, 1000, 3.0},
		{PCPDPDK, 1, 1.0},
		{PCPDPDK, 1000, 0.9},
	}
	for _, c := range cases {
		var last *Bed
		rate, res, _ := measure.LosslessRate(searchConfig(p, 20e6),
			fig9Probe(p, func() *Bed { return NewPCPBed(c.mode, c.flows, 1) }, &last))
		name := c.mode.String() + flowsSuffix(c.flows)
		r.Add(name, measure.Mpps(rate), c.paper, "Mpps")
		r.Add(name+" cpu", res.Usage.Total(), 0, "HT")
		if p.PerfStages && last != nil {
			addPerfRows(r, name, last.DP.PerfStats())
		}
	}
	r.AddNote("ordering: afxdp (XDP redirect, path C) beats both kernel and dpdk in rate and CPU")
	return r
}

// Table 4: the CPU category split at 1,000 flows, in hyperthreads.
func runTable4(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "table4", Title: "CPU use with 1000 flows (hyperthreads per category)"}

	addUsage := func(prefix string, u sim.Usage, paperSys, paperSoftirq, paperGuest, paperUser float64) {
		r.Add(prefix+" system", u[sim.System], paperSys, "HT")
		r.Add(prefix+" softirq", u[sim.Softirq], paperSoftirq, "HT")
		r.Add(prefix+" guest", u[sim.Guest], paperGuest, "HT")
		r.Add(prefix+" user", u[sim.User], paperUser, "HT")
	}

	// P2P rows.
	k := runP2PCase(rc, KindKernel, 1000, 40e6)
	addUsage("P2P kernel", k.usage, 0.1, 9.7, 0, 0.1)
	addPerfRows(r, "P2P kernel", k.perf)
	d := runP2PCase(rc, KindDPDK, 1000, 40e6)
	addUsage("P2P dpdk", d.usage, 0, 0, 0, 1.0)
	addPerfRows(r, "P2P dpdk", d.perf)
	a := runP2PCase(rc, KindAFXDP, 1000, 40e6)
	addUsage("P2P afxdp", a.usage, 0.1, 1.1, 0, 0.9)
	addPerfRows(r, "P2P afxdp", a.perf)

	// PVP rows.
	kv := runPVPCase(rc, KindKernel, VDevTap, 1000)
	addUsage("PVP kernel+tap", kv.usage, 1.2, 6.0, 1.1, 0.2)
	addPerfRows(r, "PVP kernel+tap", kv.perf)
	dv := runPVPCase(rc, KindDPDK, VDevVhost, 1000)
	addUsage("PVP dpdk+vhost", dv.usage, 0.9, 0, 1.0, 1.0)
	addPerfRows(r, "PVP dpdk+vhost", dv.perf)
	av := runPVPCase(rc, KindAFXDP, VDevVhost, 1000)
	addUsage("PVP afxdp+vhost", av.usage, 0.9, 0.8, 1.0, 1.9)
	addPerfRows(r, "PVP afxdp+vhost", av.perf)

	// PCP rows.
	for _, c := range []struct {
		mode                      PCPMode
		sys, softirq, guest, user float64
	}{
		{PCPKernel, 0, 1.5, 0, 0},
		{PCPDPDK, 0.3, 0.5, 0, 0.2},
		{PCPAFXDPRedir, 0, 1.0, 0, 0},
	} {
		var last *Bed
		_, res, _ := measure.LosslessRate(searchConfig(p, 20e6),
			fig9Probe(p, func() *Bed { return NewPCPBed(c.mode, 1000, 1) }, &last))
		addUsage("PCP "+c.mode.String(), res.Usage, c.sys, c.softirq, c.guest, c.user)
		if p.PerfStages && last != nil {
			addPerfRows(r, "PCP "+c.mode.String(), last.DP.PerfStats())
		}
	}
	r.AddNote("paper values are Table 4 verbatim; busy-poll PMD threads always report ~1.0 user per thread")
	return r
}

func flowsSuffix(flows int) string {
	if flows == 1 {
		return " 1-flow"
	}
	return " 1000-flow"
}
