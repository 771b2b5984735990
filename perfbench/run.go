package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// tail is how long the generator keeps offering load after the measured
// window, so the window's last packets queue behind traffic as the rest
// did. After it, virtual time advances in settle steps until every packet
// has landed or been counted as dropped (an overloaded PMD can be far
// behind), up to maxSettle.
const (
	tail      = 1 * sim.Millisecond
	settle    = 1 * sim.Millisecond
	maxSettle = 5 * sim.Second
)

// snap is the bed's public counters at one window edge.
type snap struct {
	events             uint64
	busy               sim.Time // all simulated CPUs
	perf               perf.Stats
	emcHits, emcMisses uint64
	clsLookups         uint64
	clsProbes          uint64
	revalBusy          sim.Time
	revalEvicted       uint64
	ctCreated          uint64
	nicDrops, xskDrops uint64
	// batchMean is read at the edge: the histogram behind it keeps
	// growing after the snapshot.
	batchMean float64
}

func (b *bed) snap() snap {
	s := snap{events: b.eng.Executed(), perf: *b.pmd.Perf,
		revalBusy: b.rv.CPU.BusyTotal(), revalEvicted: b.rv.Evicted,
		ctCreated: b.ct.Counters().Created,
		nicDrops:  b.p2p.NICA.RxDropsTotal(), xskDrops: b.xskDrops(),
		batchMean: b.pmd.Perf.BatchMean()}
	for _, c := range b.eng.CPUs() {
		s.busy += c.BusyTotal()
	}
	s.emcHits, s.emcMisses = b.pmd.EMCStats()
	cls := b.pmd.Classifier()
	s.clsLookups, s.clsProbes = cls.Lookups, cls.SubtableProbes
	return s
}

// window is one measured window's outcome.
type window struct {
	// v holds every virtual-domain metric; all of them are
	// deterministic for a given workload, seed and rate.
	v       map[string]metric
	offered uint64 // packets due in the window
	good    uint64 // of those, correctly delivered
	samples int    // latency samples
	wall    time.Duration
	rates   []float64 // simulated Mpps per host second, per timed window
	events  uint64
	allocs  uint64 // heap allocations during the window
	heapMB  float64
	// growthMB is the live-heap growth per virtual second over the
	// further windows (heap and more set).
	growthMB float64
}

type runOpts struct {
	timed bool // GC before the window and time it
	heap  bool // live heap after GC at the window's end
	// more keeps the bed running after the measured window, in further
	// windows of the same length, until that much host time has been
	// timed; each window's simulated packets per host second land in
	// window.rates.
	more time.Duration
}

// run drives the bed through warmup and one measured window of length win,
// lets in-flight traffic land, and checks the rx ledger and every frame on
// the wire. The bed stays live for replays and draining.
func (b *bed) run(win sim.Time, o runOpts) (*window, error) {
	ws := b.start + b.w.warmup(b.rate)
	we := ws + win
	b.wire.ws, b.wire.we = ws, we
	if b.tr != nil {
		b.tr.ws, b.tr.we = ws, we
	}
	b.gen.start(b.start, we+tail)
	if o.more > 0 {
		b.gen.stopAt = math.MaxInt64
	}
	b.eng.RunUntil(ws)
	s0 := b.snap()
	var ms0, ms1 runtime.MemStats
	if o.timed {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
	}
	t := time.Now()
	b.eng.RunUntil(we)
	wall := time.Since(t)
	if o.timed {
		runtime.ReadMemStats(&ms1)
	}
	s1 := b.snap()
	ctLive := b.ct.Len()
	var heap float64
	if o.heap {
		heap = liveHeapMB(b)
	}
	rates := []float64{float64(b.gen.sentBefore(we)-b.gen.sentBefore(ws)) / wall.Seconds() / 1e6}
	end, timed := we, wall
	for timed < o.more {
		runtime.GC()
		t := time.Now()
		b.eng.RunUntil(end + win)
		d := time.Since(t)
		rates = append(rates, float64(b.gen.sentBefore(end+win)-b.gen.sentBefore(end))/d.Seconds()/1e6)
		end += win
		timed += d
	}
	var growth float64
	if o.heap && end > we {
		growth = (liveHeapMB(b) - heap) / (end - we).Seconds()
	}
	b.gen.stopAt = end + tail
	for at := end + tail; at < end+tail+maxSettle; at += settle {
		b.eng.RunUntil(at)
		if b.rxLedger() == nil {
			break
		}
	}

	r := &window{wall: wall, rates: rates, heapMB: heap, growthMB: growth, events: s1.events - s0.events,
		allocs:  ms1.Mallocs - ms0.Mallocs,
		offered: b.gen.sentBefore(we) - b.gen.sentBefore(ws), good: b.wire.winDelivered}
	r.v = b.metrics(s0, s1, ctLive, win, r)
	if b.wire.bad > 0 {
		return r, fmt.Errorf("%d frames failed the wire check (first: %s)", b.wire.bad, b.wire.firstBad)
	}
	if err := b.rxLedger(); err != nil {
		return r, err
	}
	return r, nil
}

// liveHeapMB is the live heap after a GC, less the benchmark's latency
// samples, which are not the program's.
func liveHeapMB(b *bed) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-uint64(cap(b.wire.lat))*8) / 1e6
}

// metrics derives the window's virtual-domain metrics from the counter
// deltas. Stamp-dependent ones (latency, loss, vCPU per delivered packet)
// exist only when the generator stamps.
func (b *bed) metrics(s0, s1 snap, ctLive int, win sim.Time, r *window) map[string]metric {
	v := map[string]metric{}
	per := func(n float64, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return n / float64(d)
	}
	c0, c1 := &s0.perf, &s1.perf
	pkts := c1.Packets - c0.Packets
	cyc := func(st perf.Stage) float64 { return float64(c1.Cycles[st] - c0.Cycles[st]) }
	var total float64
	for st := perf.Stage(0); st < perf.NumStages; st++ {
		total += cyc(st)
	}
	lookups := s1.clsLookups - s0.clsLookups
	if b.gen.stamp {
		lat := b.wire.lat
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		r.samples = len(lat)
		v["lat_p50_us"] = metric{pct(lat, 0.50) / 1e3, "us"}
		v["lat_p99_us"] = metric{pct(lat, 0.99) / 1e3, "us"}
		v["loss_pct"] = metric{100 * per(float64(r.offered-r.good), r.offered), "%"}
		v["vcpu_ns_per_pkt"] = metric{per(float64(s1.busy-s0.busy)-cyc(perf.StageIdle), r.good), "ns"}
	}
	v["sim.events_per_pkt"] = metric{per(float64(s1.events-s0.events), r.offered), "ratio"}
	v["emc.hit_ratio"] = metric{per(float64(s1.emcHits-s0.emcHits), s1.emcHits+s1.emcMisses-s0.emcHits-s0.emcMisses), "ratio"}
	v["emc.vns_per_pkt"] = metric{per(cyc(perf.StageEMC), pkts), "vns"}
	v["dpcls.hit_ratio"] = metric{per(float64(c1.MegaflowHits-c0.MegaflowHits), lookups), "ratio"}
	v["dpcls.probes_per_lookup"] = metric{per(float64(s1.clsProbes-s0.clsProbes), lookups), "ratio"}
	v["dpcls.vns_per_pkt"] = metric{per(cyc(perf.StageDpcls), pkts), "vns"}
	v["ofproto.upcalls_per_kpkt"] = metric{1000 * per(float64(c1.Upcalls-c0.Upcalls), pkts), "1/kpkt"}
	v["ofproto.upcall_vns_per_pkt"] = metric{per(cyc(perf.StageUpcall), pkts), "vns"}
	v["dpif.reval_duty_pct"] = metric{100 * float64(s1.revalBusy-s0.revalBusy) / float64(win), "%"}
	v["dpif.reval_evictions_per_kpkt"] = metric{1000 * per(float64(s1.revalEvicted-s0.revalEvicted), pkts), "1/kpkt"}
	v["conntrack.conns"] = metric{float64(ctLive), "count"}
	v["conntrack.created_per_kpkt"] = metric{1000 * per(float64(s1.ctCreated-s0.ctCreated), pkts), "1/kpkt"}
	v["core.rx_vns_per_pkt"] = metric{per(cyc(perf.StageRx), pkts), "vns"}
	v["core.actions_vns_per_pkt"] = metric{per(cyc(perf.StageActions), pkts), "vns"}
	v["core.batch_mean"] = metric{s1.batchMean, "ratio"}
	v["core.idle_share"] = metric{cyc(perf.StageIdle) / math.Max(total, 1), "ratio"}
	v["nicsim.rx_drops"] = metric{float64(s1.nicDrops - s0.nicDrops), "count"}
	v["afxdp.ring_drops"] = metric{float64(s1.xskDrops - s0.xskDrops), "count"}
	return v
}

// pct is the nearest-rank percentile of sorted samples.
func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sameV reports the first virtual-domain metric that differs between two
// windows, comparing only keys both have.
func sameV(a, b map[string]metric) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; ok && math.Float64bits(a[k].Value) != math.Float64bits(bv.Value) {
			return fmt.Errorf("virtual metric %s differs: %v vs %v", k, a[k].Value, bv.Value)
		}
	}
	return nil
}
