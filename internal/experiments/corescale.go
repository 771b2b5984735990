package experiments

import (
	"fmt"

	"ovsxdp/internal/sim"
)

// The corescale scenario measures multi-core scaling: delivered Mpps as the
// number of processing cores grows from 1 to 8 under a fixed offered load,
// for each datapath provider. Userspace datapaths (AF_XDP, DPDK) scale by
// adding PMD threads over an 8-queue NIC through the rxq assignment layer;
// the kernel datapath scales by widening RSS across ksoftirqd contexts. A
// second sweep skews the RSS indirection table and compares the default
// round-robin assignment against the cycles policy with the auto
// load-balancer, showing what deterministic rebalancing buys back when
// queue loads are unequal.
func init() {
	register(Experiment{
		ID:       "corescale",
		Title:    "core scaling: Mpps/core for 1..8 cores, uniform and skewed RSS",
		Scenario: true,
		Run:      runCoreScale,
	})
}

const (
	corescaleQueues = 8 // NIC rx queues; PMD count sweeps below this
	corescaleFlows  = 1000
	// Offered rates sit just under 25G line rate for the fast userspace
	// datapaths (37.2 Mpps at 64B) and above the kernel's 8-core capacity,
	// so every datapath is load-limited until it saturates.
	corescaleUserRate   = 36e6
	corescaleKernelRate = 12e6
)

// corescaleSkew concentrates ~42% of the traffic on queue 0 with a long
// tail, one weight slot per NIC queue. Deterministic: the indirection table
// is a pure function of these weights.
var corescaleSkew = []int{16, 6, 4, 3, 3, 2, 2, 2}

// corescaleTrial runs one (provider, cores, traffic shape, config) cell and
// returns delivered Mpps over the measurement window.
func corescaleTrial(kind DPKind, cores int, weights []int, other map[string]string, p Profile) float64 {
	cfg := DefaultBed(kind, corescaleFlows)
	cfg.Queues = corescaleQueues
	cfg.PMDs = cores
	cfg.KernelQueues = cores
	cfg.RSSWeights = weights
	cfg.Other = other
	bed := NewP2PBed(cfg)

	rate := corescaleUserRate
	if kind == KindKernel || kind == KindEBPF {
		rate = corescaleKernelRate
	}
	res := RunProbe(bed, rate, p.Warmup, p.Window)
	return float64(res.Delivered) / (float64(p.Window) / float64(sim.Second)) / 1e6
}

func runCoreScale(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "corescale",
		Title: fmt.Sprintf("core scaling (64B, %d flows, %d rx queues, fixed offered load)",
			corescaleFlows, corescaleQueues)}

	coreCounts := []int{1, 2, 4, 8}
	skewCores := []int{2, 4, 8}
	if p.Window < Full.Window {
		coreCounts = []int{1, 2, 4} // quick profile drops the 8-core points
		skewCores = []int{4}
	}

	// Sweep 1: uniform RSS, every provider. The headline scaling table.
	base := map[DPKind]float64{}
	for _, kind := range []DPKind{KindAFXDP, KindDPDK, KindKernel} {
		for _, c := range coreCounts {
			mpps := corescaleTrial(kind, c, nil, nil, p)
			r.Add(fmt.Sprintf("%s uniform %d-core", kind, c), mpps, 0, "Mpps")
			if c == 1 {
				base[kind] = mpps
			} else if base[kind] > 0 {
				eff := 100 * mpps / (base[kind] * float64(c))
				r.AddNote("%s %d-core: %.2f Mpps/core, scaling efficiency %.0f%% of linear",
					kind, c, mpps/float64(c), eff)
			}
		}
	}

	// Sweep 2: skewed RSS on the AF_XDP datapath — round-robin assignment
	// against the cycles policy with the deterministic auto load-balancer.
	autoLB := map[string]string{
		"pmd-rxq-assign":                "cycles",
		"pmd-auto-lb":                   "true",
		"pmd-auto-lb-rebal-interval-us": "2000",
	}
	for _, c := range skewCores {
		rr := corescaleTrial(KindAFXDP, c, corescaleSkew, nil, p)
		lb := corescaleTrial(KindAFXDP, c, corescaleSkew, autoLB, p)
		r.Add(fmt.Sprintf("afxdp skewed %d-core roundrobin", c), rr, 0, "Mpps")
		r.Add(fmt.Sprintf("afxdp skewed %d-core cycles+autolb", c), lb, 0, "Mpps")
		if rr > 0 {
			r.AddNote("afxdp skewed %d-core: cycles+autolb delivers %.2fx the round-robin rate",
				c, lb/rr)
		}
	}
	r.AddNote("uniform sweep: offered %.0f Mpps userspace / %.0f Mpps kernel; skew weights %v over %d queues",
		corescaleUserRate/1e6, corescaleKernelRate/1e6, corescaleSkew, corescaleQueues)
	return r
}
