package main

import (
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// workload is one traffic mix driven through the P2P bed. Rates are fixed
// absolute offered loads (packets per second), sized once from the capacity
// of the code the benchmark was defined on and never derived from the code
// under test.
type workload struct {
	name string
	// flows is the number of concurrently active 5-tuples (connections
	// for the stateful workload).
	flows int
	tcp   bool
	// sizes are the frame sizes in bytes as the datapath sees them (no
	// FCS); weights gives their relative frequency.
	sizes   []int
	weights []int
	// churnPerS advances the active window: each step retires the oldest
	// flow and exposes a fresh one. Zero keeps the flow set fixed.
	churnPerS float64
	// stateful workloads commit every packet to conntrack.
	stateful bool
	// prefill installs the initial megaflows through the upcall
	// translation before traffic starts (the 100k-flow table would
	// otherwise take seconds of virtual upcall time to build).
	prefill bool

	lo, hi float64 // offered rates of the two latency points, pps
	// searchLo/searchHi bracket the lossless-rate bisection; probes is
	// its fixed step count.
	searchLo, searchHi float64
	probes             int

	warm        sim.Time // minimum warmup before a measured window
	probeWindow sim.Time // measured window of a search probe
	// loWindow/hiWindow are the measured windows of the latency points,
	// long enough that the p99 rests on hundreds of tail samples.
	loWindow, hiWindow sim.Time

	order map[uint64][]int32 // memoized visit orders per seed
}

// ctZone is the conntrack zone the stateful pipeline commits into.
const ctZone uint16 = 7

var workloads = []*workload{
	{
		// Fig 9a shape: the per-packet cost floor at the smallest frame.
		// After warmup every packet hits the EMC.
		name: "fastpath", flows: 1000, sizes: []int{64}, weights: []int{1},
		lo: 1.3e6, hi: 4.0e6, searchLo: 2e6, searchHi: 12e6, probes: 12,
		warm: 5 * sim.Millisecond, probeWindow: 40 * sim.Millisecond,
		loWindow: 120 * sim.Millisecond, hiWindow: 120 * sim.Millisecond,
	},
	{
		// 100k active flows (12x the EMC) under a fixed churn rate:
		// EMC misses, per-flow megaflows in two dpcls subtables, upcalls
		// for every new flow and revalidator expiry of retired ones.
		name: "churn", flows: 100_000, sizes: []int{64}, weights: []int{1},
		churnPerS: 5000, prefill: true,
		lo: 0.64e6, hi: 1.9e6, searchLo: 1e6, searchHi: 6e6, probes: 8,
		warm: 5 * sim.Millisecond, probeWindow: 80 * sim.Millisecond,
		loWindow: 480 * sim.Millisecond, hiWindow: 240 * sim.Millisecond,
	},
	{
		// Stateful firewall over 100k established TCP connections with
		// mixed frame sizes: every packet recirculates through
		// ct(commit) and a ct_state match.
		name: "firewall", flows: 100_000, tcp: true, stateful: true,
		sizes: []int{64, 512, 1500}, weights: []int{7, 4, 1},
		lo: 0.36e6, hi: 1.07e6, searchLo: 0.5e6, searchHi: 4e6, probes: 8,
		warm: 5 * sim.Millisecond, probeWindow: 40 * sim.Millisecond,
		loWindow: 120 * sim.Millisecond, hiWindow: 120 * sim.Millisecond,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// gap is how long one round over every active flow takes at rate.
func (w *workload) gap(rate float64) sim.Time {
	return sim.Time(float64(w.flows) / rate * float64(sim.Second))
}

// windowAt is the measured window of the latency point at rate.
func (w *workload) windowAt(rate float64) sim.Time {
	if rate == w.lo {
		return w.loWindow
	}
	return w.hiWindow
}

// revalIdle is the revalidator idle timeout at rate: long enough that an
// active flow is always hit between checks, so only retired flows expire.
func (w *workload) revalIdle(rate float64) sim.Time {
	return max(w.gap(rate)*5/4, 10*sim.Millisecond)
}

// ctTimeout is the established-connection timeout at rate: four rounds,
// so no live connection expires while traffic runs.
func (w *workload) ctTimeout(rate float64) sim.Time {
	return max(4*w.gap(rate), 50*sim.Millisecond)
}

// warmup is the virtual time before a measured window. Churn needs two
// idle timeouts so that flows retired since the start are already being
// evicted; the others only need the caches and rings to settle.
func (w *workload) warmup(rate float64) sim.Time {
	if w.churnPerS > 0 {
		return 2*w.revalIdle(rate) + w.warm
	}
	return w.warm
}

// tuple derives flow id's addressing from the seed. Churn and firewall
// place the id in the source address bijectively, so every flow is a
// distinct source; fastpath draws its addresses at random, like a tester
// picking from 1,000 flows.
func (w *workload) tuple(seed uint64, id int) tuple {
	h := mix(seed ^ uint64(id)*0x9e3779b97f4a7c15)
	scr := uint32(uint64(id)*0x5bd1e995+seed) & 0xffffff
	switch w.name {
	case "fastpath":
		return tuple{
			src:   hdr.MakeIP4(10, 0, byte(h>>8), byte(h)),
			dst:   hdr.MakeIP4(10, 1, byte(h>>24), byte(h>>16)),
			sport: uint16(1024 + (h>>32)%40000),
			dport: uint16(1024 + (h>>48)%40000),
		}
	case "churn":
		// The destination port splits flows across the pipeline's two
		// branches, hence two megaflow masks.
		return tuple{
			src: hdr.IP4(10<<24 | scr), dst: hdr.MakeIP4(172, 16, byte(seed>>8), byte(seed)|1),
			sport: uint16(1024 + h%60000), dport: uint16(2000 + id&1),
		}
	default:
		return tuple{
			src: hdr.IP4(10<<24 | scr), dst: hdr.MakeIP4(172, 16, byte(seed>>8), byte(seed)|1),
			sport: uint16(1024 + h%60000), dport: 443,
		}
	}
}

// orderFor returns the seeded permutation of flow slots every round visits.
func (w *workload) orderFor(seed uint64) []int32 {
	if p, ok := w.order[seed]; ok {
		return p
	}
	p := make([]int32, w.flows)
	for i := range p {
		p[i] = int32(i)
	}
	r := sim.NewRand(seed)
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	if w.order == nil {
		w.order = map[uint64][]int32{}
	}
	w.order[seed] = p
	return p
}

// sizePicker returns packet k's template index, drawn from the weights.
func (w *workload) sizePicker(seed uint64) func(uint64) int {
	if len(w.sizes) == 1 {
		return func(uint64) int { return 0 }
	}
	total := 0
	for _, wt := range w.weights {
		total += wt
	}
	return func(k uint64) int {
		r := int(mix(seed*0x100000001b3^k) % uint64(total))
		for i, wt := range w.weights {
			if r < wt {
				return i
			}
			r -= wt
		}
		return len(w.weights) - 1
	}
}

// pipeline builds the workload's OpenFlow rules. Every upcall translates
// against it through Pipeline.Translate.
func (w *workload) pipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	inPort := flow.NewMaskBuilder().InPort().Build()
	switch w.name {
	case "fastpath":
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, inPort),
			Actions: []ofproto.Action{ofproto.Output(2)}})
	case "churn":
		// Table 0 branches on the destination port; tables 1 and 2 each
		// hold a high-priority deny rule for one blocked 5-tuple that
		// the traffic never matches, but whose probe un-wildcards the
		// source address (and, in table 1, the source port), so
		// megaflows are per flow in two masks.
		branch := flow.NewMaskBuilder().InPort().EthType().IPProto().TPDst().Build()
		for _, br := range []struct {
			tbl   uint8
			dport uint16
		}{{1, 2001}, {2, 2000}} {
			tbl, dport := br.tbl, br.dport
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
				Match: ofproto.NewMatch(flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4,
					IPProto: hdr.IPProtoUDP, TPDst: dport}, branch),
				Actions: []ofproto.Action{ofproto.GotoTable(tbl)}})
			deny := flow.NewMaskBuilder().EthType().IPProto().IP4Src(32).IP4Dst(32).TPDst()
			if tbl == 1 {
				deny = deny.TPSrc()
			}
			pl.AddRule(&ofproto.Rule{TableID: tbl, Priority: 200,
				Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP,
					IP4Src: hdr.MakeIP4(192, 168, 0, 1), IP4Dst: hdr.MakeIP4(192, 168, 0, 2),
					TPSrc: 1, TPDst: dport}, deny.Build()),
				Actions: []ofproto.Action{ofproto.Drop()}})
			pl.AddRule(&ofproto.Rule{TableID: tbl, Priority: 10,
				Match: ofproto.MatchAny(), Actions: []ofproto.Action{ofproto.Output(2)}})
		}
	case "firewall":
		tcp := flow.NewMaskBuilder().InPort().EthType().IPProto().Build()
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 10,
			Match: ofproto.NewMatch(flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4,
				IPProto: hdr.IPProtoTCP}, tcp),
			Actions: []ofproto.Action{ofproto.CT(ctZone, true, 1)}})
		bits := uint8(packet.CtTracked | packet.CtEstablished | packet.CtInvalid)
		est := flow.NewMaskBuilder().CtState(bits).Build()
		pl.AddRule(&ofproto.Rule{TableID: 1, Priority: 10,
			Match:   ofproto.NewMatch(flow.Fields{CtState: uint8(packet.CtTracked | packet.CtEstablished)}, est),
			Actions: []ofproto.Action{ofproto.Output(2)}})
	}
	return pl
}
