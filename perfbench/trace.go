package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/emc"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// captureMax bounds the packets a traced window copies for replay.
const captureMax = 1 << 16

// replayBatch is the number of calls one replay span times; a span's
// per-call duration is its length over the batch, which keeps clock reads
// out of calls that take tens of nanoseconds.
const replayBatch = 64

// tracer records host-time spans around the benchmark's calls into each
// layer. Spans stay in memory until the run ends. In situ, it wraps the
// generator's NIC receive and the upcall seam; every other layer is timed
// by replaying the window's captured packets through its public function
// after the window, so the traced window itself runs the same code as the
// untraced one.
type tracer struct {
	eng    *sim.Engine
	ws, we sim.Time
	// spans holds per-call durations (ns) by layer, in situ and replayed;
	// calls counts the calls made in the window (in situ) or over the
	// captured packets (replay) for the per-packet attribution.
	spans   map[string][]float64
	calls   map[string]int
	capture [][]byte
	allocs  map[string]float64
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]float64{}, calls: map[string]int{}, allocs: map[string]float64{}}
}

// add records one span covering calls calls.
func (t *tracer) add(name string, d time.Duration, calls int) {
	t.spans[name] = append(t.spans[name], float64(d.Nanoseconds())/float64(calls))
}

// translate wraps the pipeline's translator in a span; it is what the
// traced bed registers as its upcall handler.
func (t *tracer) translate(pl *ofproto.Pipeline) dpif.UpcallFunc {
	return func(key flow.Key) (ofproto.Megaflow, error) {
		s := time.Now()
		mf, err := pl.Translate(key)
		t.add("ofproto.translate", time.Since(s), 1)
		return mf, err
	}
}

// receive wraps NIC A's receive in a span for packets arriving inside the
// measured window, and captures those packets for the replays.
func (t *tracer) receive(nic *nicsim.NIC) func(*packet.Packet) bool {
	return func(p *packet.Packet) bool {
		if at := t.eng.Now(); at < t.ws || at >= t.we {
			return nic.Receive(p)
		}
		if len(t.capture) < captureMax {
			t.capture = append(t.capture, append([]byte(nil), p.Data...))
		}
		s := time.Now()
		ok := nic.Receive(p)
		t.add("nicsim.receive", time.Since(s), 1)
		t.calls["nicsim.receive"]++
		return ok
	}
}

// timeBatches times fn over n calls in spans of replayBatch calls.
func (t *tracer) timeBatches(name string, n int, fn func(i int)) {
	t.calls[name] += n
	for i := 0; i < n; i += replayBatch {
		end := min(i+replayBatch, n)
		s := time.Now()
		for j := i; j < end; j++ {
			fn(j)
		}
		t.add(name, time.Since(s), end-i)
	}
}

// replay times each layer's public function over the captured packets,
// following the cache hierarchy the datapath walks: every key probes the
// EMC, EMC misses probe the megaflow classifier, classifier misses are
// translated. The EMC and classifier are fresh copies filled from the
// bed's installed flows, so the live bed is not perturbed by lookups; the
// conntrack replay runs against the live connection table, and the
// Dpif.Execute replay against the live bed (its frames are not checked).
// It runs after the window's metrics are taken.
func (t *tracer) replay(b *bed) {
	pkts := make([]*packet.Packet, len(t.capture))
	for i, d := range t.capture {
		pkts[i] = packet.New(d)
		pkts[i].InPort = 1
	}

	// Keys in datapath order: the first pass, plus for the stateful
	// pipeline the post-conntrack pass of an established connection.
	var keys []flow.Key
	for _, p := range pkts {
		keys = append(keys, flow.Extract(p))
		if b.w.stateful {
			q := packet.New(p.Data)
			q.InPort, q.RecircID = 1, 1
			q.CtState = packet.CtTracked | packet.CtEstablished
			q.CtZone = ctZone
			keys = append(keys, flow.Extract(q))
		}
	}
	cache := emc.New[*dpcls.Entry](costmodel.EMCEntries, 1)
	cache.SetAliveCheck(func(e *dpcls.Entry) bool { return !e.Dead() })
	cls := dpcls.New(1)
	for _, f := range b.dp.FlowDump() {
		cls.Insert(f.Entry.MaskedKey, f.Entry.Mask, f.Entry.Actions)
	}
	var dpclsKeys, missKeys []flow.Key
	for _, k := range keys {
		if _, ok := cache.Lookup(k); ok {
			continue
		}
		dpclsKeys = append(dpclsKeys, k)
		e, _ := cls.Lookup(k)
		if e == nil {
			missKeys = append(missKeys, k)
			mf, err := b.pl.Translate(k)
			if err != nil {
				continue
			}
			e = cls.Insert(k, mf.Mask, mf.Actions)
		}
		cache.Insert(k, e)
	}

	pool := packet.NewPool(4096, 2048, true)
	t.timeBatches("packet.getcopy", len(pkts), func(i int) { pool.GetCopy(pkts[i].Data).Release() })
	t.timeBatches("flow.extract", len(pkts), func(i int) { flow.Extract(pkts[i]) })
	hook := b.p2p.NICA.Hook
	t.timeBatches("xdp.run", len(pkts), func(i int) { _, _, _ = hook.Run(0, pkts[i].Data, 1) })
	t.timeBatches("emc.lookup", len(keys), func(i int) { cache.Lookup(keys[i]) })
	t.timeBatches("dpcls.lookup", len(dpclsKeys), func(i int) { cls.Lookup(dpclsKeys[i]) })
	t.timeBatches("ofproto.translate", len(missKeys), func(i int) { _, _ = b.pl.Translate(missKeys[i]) })
	if b.w.stateful {
		t.timeBatches("conntrack.process", len(pkts), func(i int) {
			pkts[i].ResetMetadata()
			b.ct.Process(pkts[i], ctZone, true, conntrack.NAT{})
		})
	}
	t.replayReceive(b, pkts)
	t.replayExecute(b)
}

// replayReceive measures NIC receive allocations on a fresh NIC: the
// in-situ spans give its time, but allocations cannot be split per call
// inside the running bed.
func (t *tracer) replayReceive(b *bed, pkts []*packet.Packet) {
	nic := nicsim.New(b.eng, nicsim.Config{Name: "replay", Ifindex: 9, Queues: 1,
		LinkRate: costmodel.LinkRate25G})
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	batch := make([]*packet.Packet, 0, 512)
	for i := 0; i < len(pkts); i += 512 {
		batch = batch[:0]
		for j := i; j < min(i+512, len(pkts)); j++ {
			batch = append(batch, packet.New(pkts[j].Data))
		}
		runtime.ReadMemStats(&ms0)
		for _, p := range batch {
			nic.Receive(p)
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		nic.Queue(0).Pop(len(batch))
	}
	t.allocs["nicsim.receive"] = float64(mallocs) / float64(max(len(pkts), 1))
}

// replayExecute runs captured packets through Dpif.Execute — the whole
// datapath pipeline per packet — in chunks, advancing virtual time between
// chunks so the PMD flushes its transmit batches.
func (t *tracer) replayExecute(b *bed) {
	const chunk = 256
	b.wire.replay = true
	defer func() { b.wire.replay = false }()
	pool := packet.NewPool(chunk, 2048, true)
	ps := make([]*packet.Packet, 0, chunk)
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	for i := 0; i < len(t.capture); i += chunk {
		ps = ps[:0]
		for j := i; j < min(i+chunk, len(t.capture)); j++ {
			p := pool.GetCopy(t.capture[j])
			p.InPort = 1
			ps = append(ps, p)
		}
		runtime.ReadMemStats(&ms0)
		t.timeBatches("dpif.execute", len(ps), func(j int) { b.dp.Execute(ps[j]) })
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		b.eng.RunUntil(b.eng.Now() + 100*sim.Microsecond)
	}
	t.allocs["dpif.execute"] = float64(mallocs) / float64(max(len(t.capture), 1))
}

// clockNs is the median cost of one empty span: two clock reads.
func clockNs() float64 {
	d := make([]float64, 4096)
	for i := range d {
		s := time.Now()
		d[i] = float64(time.Since(s).Nanoseconds())
	}
	return median(d)
}

// spanLayers are the layers the tracer times, in datapath order.
var spanLayers = []string{"nicsim.receive", "packet.getcopy", "flow.extract", "xdp.run",
	"emc.lookup", "dpcls.lookup", "ofproto.translate", "conntrack.process", "dpif.execute"}

// spanMetrics renders every layer's span statistics: the median and p99
// per-call duration, and the layer's host time per window packet — the
// median per-call duration times the calls each packet makes into the
// layer (a median, so GC pauses landing in one span do not skew it).
func (t *tracer) spanMetrics(windowPkts uint64) map[string]metric {
	m := map[string]metric{}
	for _, name := range spanLayers {
		d := append([]float64(nil), t.spans[name]...)
		sort.Float64s(d)
		m[name+"_ns"], m[name+"_ns.p99"] = metric{0, "ns"}, metric{0, "ns"}
		if len(d) > 0 {
			m[name+"_ns"] = metric{median(d), "ns"}
			m[name+"_ns.p99"] = metric{d[int(math.Ceil(0.99*float64(len(d))))-1], "ns"}
		}
	}
	for _, name := range spanLayers {
		pkts := float64(max(len(t.capture), 1))
		if name == "nicsim.receive" {
			pkts = float64(max(windowPkts, 1))
		}
		m[name+".host_ns_per_pkt"] = metric{m[name+"_ns"].Value * float64(t.calls[name]) / pkts, "ns"}
	}
	m["nicsim.receive_allocs"] = metric{t.allocs["nicsim.receive"], "allocs"}
	m["dpif.execute_allocs"] = metric{t.allocs["dpif.execute"], "allocs"}
	return m
}
