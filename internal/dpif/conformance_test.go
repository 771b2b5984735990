package dpif_test

import (
	"fmt"
	"reflect"
	"testing"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// observation is everything a dpif consumer can see from one scenario run.
// The conformance suite runs the identical scenario against every
// registered provider and requires the observations to be deeply equal —
// the guarantee that lets vswitchd, the revalidator, and ovsctl treat the
// three datapaths interchangeably.
type observation struct {
	Type string // filled per-provider, compared against the registry key

	AfterWarm   dpif.Stats // after 8 packets of one flow
	Delivered   uint64
	Upcalls     uint64 // slow-path invocations seen by the upcall hook
	DumpedFlows int

	DelRemoved   bool
	AfterDel     int // flows after deleting the dumped entry
	AfterReExec  dpif.Stats
	AfterFlush   int
	AfterPut     dpif.Stats // FlowPut then one packet: hit without upcall
	PortDelErr   bool       // second PortDel of the same id must fail
	AfterPortDel dpif.Stats // packet executed with output port gone
	FinalPorts   int
}

func scenarioPacket() *packet.Packet {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 1
	return p
}

func forwardPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1},
			flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

// runScenario drives one provider through the shared port/flow/upcall/stats
// scenario. mutate, when non-nil, adjusts the Config before Open — the hook
// the SMC variant uses to reshape the cache hierarchy.
func runScenario(t *testing.T, name string, mutate func(*dpif.Config)) observation {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := forwardPipeline()
	cfg := dpif.Config{Eng: eng, Pipeline: pl}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := dpif.Open(name, cfg)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	var obs observation
	obs.Type = d.Type()

	// Upcall hook: count slow-path translations, delegating to the pipeline.
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		obs.Upcalls++
		return pl.Translate(key)
	})

	// Ports: 1 is the ingress identity, 2 counts deliveries.
	if err := d.PortAdd(dpif.TxPort{PortID: 1, PortName: "p0",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("%s: PortAdd(1): %v", name, err)
	}
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) { obs.Delivered++ }}); err != nil {
		t.Fatalf("%s: PortAdd(2): %v", name, err)
	}
	if n := d.PortCount(); n != 2 {
		t.Fatalf("%s: PortCount = %d, want 2", name, n)
	}

	run := func() { eng.RunUntil(eng.Now() + sim.Millisecond) }

	// Phase 1: 8 packets of one flow — first misses, rest hit the cache.
	for i := 0; i < 8; i++ {
		d.Execute(scenarioPacket())
	}
	run()
	obs.AfterWarm = d.Stats()

	// Phase 2: dump, delete the installed flow, re-execute (fresh upcall).
	flows := d.FlowDump()
	obs.DumpedFlows = len(flows)
	if len(flows) > 0 {
		obs.DelRemoved = d.FlowDel(flows[0])
	}
	obs.AfterDel = len(d.FlowDump())
	d.Execute(scenarioPacket())
	run()
	obs.AfterReExec = d.Stats()

	// Phase 3: flush everything, then pre-install via FlowPut — the next
	// packet must hit without consulting the upcall.
	d.FlowFlush()
	obs.AfterFlush = len(d.FlowDump())
	key := flow.Extract(scenarioPacket())
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatalf("%s: Translate: %v", name, err)
	}
	upcallsBefore := obs.Upcalls
	d.FlowPut(key, mf.Mask, mf.Actions)
	d.Execute(scenarioPacket())
	run()
	if obs.Upcalls != upcallsBefore {
		t.Errorf("%s: packet after FlowPut took an upcall", name)
	}
	obs.AfterPut = d.Stats()

	// Phase 4: drop the output port; traffic for it is lost, and deleting
	// the port twice is an error.
	if err := d.PortDel(2); err != nil {
		t.Fatalf("%s: PortDel(2): %v", name, err)
	}
	obs.PortDelErr = d.PortDel(2) != nil
	d.FlowFlush() // cached actions may hold the dead port's deliver fn
	d.Execute(scenarioPacket())
	run()
	obs.AfterPortDel = d.Stats()
	obs.FinalPorts = d.PortCount()
	return obs
}

// TestConformance runs the same scenario against every registered provider
// and requires identical observable behaviour.
func TestConformance(t *testing.T) {
	types := dpif.Types()
	if len(types) != 3 {
		t.Fatalf("registry has %v, want 3 providers", types)
	}
	obs := make(map[string]observation, len(types))
	for _, name := range types {
		o := runScenario(t, name, nil)
		if o.Type != name {
			t.Errorf("Open(%q).Type() = %q", name, o.Type)
		}
		o.Type = "" // normalized away for the cross-provider comparison
		obs[name] = o
	}

	// Spot-check the absolute numbers once (they are provider-independent).
	ref := obs["netdev"]
	if want := (dpif.Stats{Hits: 7, Missed: 1, Lost: 0, Processed: 8, Flows: 1}); !reflect.DeepEqual(ref.AfterWarm, want) {
		t.Errorf("netdev AfterWarm = %+v, want %+v", ref.AfterWarm, want)
	}
	// 10 = 8 warm + 1 after FlowDel + 1 after FlowPut (the port-del packet
	// is lost, not delivered).
	if ref.Delivered != 10 || !ref.DelRemoved || ref.AfterDel != 0 || ref.AfterFlush != 0 {
		t.Errorf("netdev scenario: delivered=%d delRemoved=%v afterDel=%d afterFlush=%d",
			ref.Delivered, ref.DelRemoved, ref.AfterDel, ref.AfterFlush)
	}
	if ref.AfterPortDel.Lost == 0 {
		t.Errorf("netdev: packet to deleted port not counted as lost: %+v", ref.AfterPortDel)
	}

	for _, name := range types {
		if !reflect.DeepEqual(obs[name], ref) {
			t.Errorf("provider %q diverges from netdev:\n  %q: %+v\n  netdev: %+v",
				name, name, obs[name], ref)
		}
	}
}

// TestConformanceWithSMC reruns the shared scenario with the EMC disabled
// and the signature match cache enabled, so the warm phase's repeat packets
// must resolve through the SMC on netdev. The kernel-path providers ignore
// the cache keys (they have no SMC), so their SMCHits stay zero; the
// cross-provider comparison normalizes the field away and requires every
// other observable — hit totals, upcall counts, flow lifecycles — to remain
// identical. This is the guarantee that enabling the SMC changes where
// packets resolve, never what happens to them.
func TestConformanceWithSMC(t *testing.T) {
	withSMC := func(cfg *dpif.Config) {
		// Force repeat traffic onto the SMC level.
		cfg.Other = map[string]string{"emc-enable": "false", "smc-enable": "true"}
	}
	types := dpif.Types()
	obs := make(map[string]observation, len(types))
	for _, name := range types {
		o := runScenario(t, name, withSMC)
		o.Type = ""
		obs[name] = o
	}

	// netdev must have resolved every warm repeat through the SMC: 8
	// packets, 1 upcall, 7 signature-cache hits.
	ref := obs["netdev"]
	if want := (dpif.Stats{Hits: 7, SMCHits: 7, Missed: 1, Processed: 8, Flows: 1}); !reflect.DeepEqual(ref.AfterWarm, want) {
		t.Errorf("netdev AfterWarm with SMC = %+v, want %+v", ref.AfterWarm, want)
	}
	// FlowDel invalidated the SMC's megaflow index, so the re-executed
	// packet must take a fresh upcall rather than resolve via the stale
	// entry (Missed climbs to 2); the subsequent FlowPut packet hits the
	// classifier directly.
	if ref.AfterReExec.Missed != 2 {
		t.Errorf("netdev AfterReExec.Missed = %d, want 2 (stale SMC index must not serve)", ref.AfterReExec.Missed)
	}

	// Cross-provider: normalize the netdev-only SMC split out of the stats
	// blocks, then require deep equality as in the base conformance run.
	normalize := func(o observation) observation {
		o.AfterWarm.SMCHits = 0
		o.AfterReExec.SMCHits = 0
		o.AfterPut.SMCHits = 0
		o.AfterPortDel.SMCHits = 0
		return o
	}
	nref := normalize(ref)
	for _, name := range types {
		if got := normalize(obs[name]); !reflect.DeepEqual(got, nref) {
			t.Errorf("provider %q diverges from netdev with SMC enabled:\n  %q: %+v\n  netdev: %+v",
				name, name, got, nref)
		}
	}
}

// TestPerfStatsAcrossProviders checks the perf layer surfaces through every
// provider with the same packet accounting: the stage split differs (netdev
// has an EMC, the kernel paths do not), but totals and the upcall count are
// provider-independent.
func TestPerfStatsAcrossProviders(t *testing.T) {
	for _, name := range dpif.Types() {
		eng := sim.NewEngine(1)
		pl := forwardPipeline()
		d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl})
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		for _, id := range []uint32{1, 2} {
			if err := d.PortAdd(dpif.TxPort{PortID: id, PortName: "p",
				Deliver: func(*packet.Packet) {}}); err != nil {
				t.Fatalf("%s: PortAdd: %v", name, err)
			}
		}
		d.EnableTrace(4)
		for i := 0; i < 8; i++ {
			d.Execute(scenarioPacket())
		}
		eng.RunUntil(eng.Now() + sim.Millisecond)

		threads := d.PerfStats()
		if len(threads) == 0 {
			t.Fatalf("%s: no perf threads", name)
		}
		var packets, hits, upcalls uint64
		var busy sim.Time
		var recs []perf.TraceRecord
		for _, th := range threads {
			packets += th.Packets
			hits += th.EMCHits + th.SMCHits + th.MegaflowHits
			upcalls += th.Upcalls
			busy += th.BusyCycles()
			recs = append(recs, th.Trace()...)
		}
		if packets != 8 || upcalls != 1 || hits != 7 {
			t.Errorf("%s: packets=%d hits=%d upcalls=%d, want 8/7/1",
				name, packets, hits, upcalls)
		}
		if busy <= 0 {
			t.Errorf("%s: no busy cycles attributed", name)
		}
		if len(recs) != 4 {
			t.Errorf("%s: %d trace records, want ring of 4", name, len(recs))
		}
		for _, r := range recs {
			if r.InPort != 1 || r.OutPort != 2 || r.Result == perf.ResultNone {
				t.Errorf("%s: bad lifecycle %+v", name, r)
			}
		}
	}
}

// faultObservation is everything observable from the shared fault schedule:
// the unified stats block (slow-path retries and errors included), the
// test's own delivery accounting, and the injector's per-fault counters.
type faultObservation struct {
	Stats       dpif.Stats
	Delivered   uint64
	LinkDrops   uint64
	HookUpcalls uint64 // upcall-hook invocations, failed attempts included

	FlowsAfterFail   int // negative flow(s) present after hard failure
	FlowsAfterExpiry int // and gone after the TTL

	UpcallWindows uint64
	UpcallTrips   uint64
	LinkWindows   uint64
	LinkTrips     uint64

	// Busy fingerprints virtual-time cost attribution across every CPU,
	// and CPUs breaks it down per CPU in creation order: name, then busy
	// time per category. Both are pinned per provider and cleared for the
	// cross-provider comparison (the providers' costs differ by design).
	Busy sim.Time
	CPUs []string
}

// malformedPacket is a truncated IPv4 frame: the Ethernet header parses and
// announces IPv4, but only 4 bytes of L3 follow. InPort 7 matches no
// installed flow on any provider (the ebpf flavor's exact-match narrowing
// included), so the packet reaches the slow-path admission check where the
// malformed split happens.
func malformedPacket() *packet.Packet {
	data := make([]byte, hdr.EthernetSize+4)
	data[12], data[13] = 0x08, 0x00 // EtherTypeIPv4
	p := packet.New(data)
	p.InPort = 7
	return p
}

// runFaultScenario drives one provider through the shared fault schedule:
//
//	A: transient slow-path outage + a 12-packet burst of one flow — 4 park
//	   in the bounded queue and recover via backoff retries, 8 overflow;
//	B: link flap on the output port while the flow is hot — delivery fails
//	   at the carrier, the datapath still counts hits;
//	C: malformed frames — counted separately from policy drops;
//	D: hard slow-path outage — retries exhaust, the flow is dropped and a
//	   short-lived negative flow shields the slow path until its TTL.
func runFaultScenario(t *testing.T, name string) faultObservation {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := forwardPipeline()
	d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl,
		Other: map[string]string{"upcall-queue-cap": "4", "upcall-service-us": "20",
			"upcall-retry-base-us": "25", "upcall-max-retries": "3"}})
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	var o faultObservation
	inj := faultinject.New(eng)

	failGate := inj.Gate(faultinject.KindUpcallFailure, "upcall")
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		o.HookUpcalls++
		if failGate() {
			return ofproto.Megaflow{}, inj.Err(faultinject.KindUpcallFailure, "upcall")
		}
		return pl.Translate(key)
	})

	linkGate := inj.Gate(faultinject.KindLinkFlap, "p1")
	if err := d.PortAdd(dpif.TxPort{PortID: 1, PortName: "p0",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("%s: PortAdd(1): %v", name, err)
	}
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) {
			if linkGate() {
				o.LinkDrops++
			} else {
				o.Delivered++
			}
		}}); err != nil {
		t.Fatalf("%s: PortAdd(2): %v", name, err)
	}

	// Phase A: the slow path is down for the first 100us; a 12-packet burst
	// of one flow arrives at t=0. Queue cap 4: the rest is ENOBUFS.
	inj.Window(faultinject.KindUpcallFailure, "upcall", 0, 100*sim.Microsecond, nil)
	for i := 0; i < 12; i++ {
		d.Execute(scenarioPacket())
	}
	eng.RunUntil(sim.Millisecond) // retries resolve well before this

	// Phase B: link flap on the output port while the flow is installed.
	// The window edges are engine events, so arm it strictly in the future
	// and advance into it before executing.
	t1 := eng.Now()
	inj.Window(faultinject.KindLinkFlap, "p1", t1+10*sim.Microsecond, 30*sim.Microsecond, nil)
	eng.RunUntil(t1 + 20*sim.Microsecond)
	for i := 0; i < 6; i++ {
		d.Execute(scenarioPacket())
	}
	eng.RunUntil(t1 + 100*sim.Microsecond)

	// Phase C: malformed frames never reach the upcall queue.
	for i := 0; i < 3; i++ {
		d.Execute(malformedPacket())
	}
	eng.RunUntil(t1 + 200*sim.Microsecond)

	// Phase D: flow tables empty, slow path hard-down for 5ms — longer than
	// any backoff chain. 5 packets: 4 admitted (all eventually dropped, one
	// through exhausted retries, the rest against the negative flow), 1
	// refused at the queue.
	d.FlowFlush()
	t2 := eng.Now()
	inj.Window(faultinject.KindUpcallFailure, "upcall", t2+10*sim.Microsecond, 5*sim.Millisecond, nil)
	eng.RunUntil(t2 + 20*sim.Microsecond)
	for i := 0; i < 5; i++ {
		d.Execute(scenarioPacket())
	}
	eng.RunUntil(t2 + 3*sim.Millisecond)
	o.FlowsAfterFail = len(d.FlowDump())
	eng.RunUntil(t2 + 40*sim.Millisecond) // past the negative flow's TTL
	o.FlowsAfterExpiry = len(d.FlowDump())

	o.Stats = d.Stats()
	o.UpcallWindows = inj.Windows(faultinject.KindUpcallFailure)
	o.UpcallTrips = inj.Trips(faultinject.KindUpcallFailure)
	o.LinkWindows = inj.Windows(faultinject.KindLinkFlap)
	o.LinkTrips = inj.Trips(faultinject.KindLinkFlap)
	for _, c := range eng.CPUs() {
		o.Busy += c.BusyTotal()
		o.CPUs = append(o.CPUs, fmt.Sprintf("%s %d/%d/%d/%d", c.Name(),
			c.Busy(sim.User), c.Busy(sim.System), c.Busy(sim.Softirq), c.Busy(sim.Guest)))
	}
	return o
}

// TestFaultScheduleConformance runs the same fault schedule against every
// provider and requires identical counter semantics: the same packets drop
// for the same reasons in the same places, and the drop classes conserve
// against Processed.
func TestFaultScheduleConformance(t *testing.T) {
	types := dpif.Types()
	obs := make(map[string]faultObservation, len(types))
	for _, name := range types {
		obs[name] = runFaultScenario(t, name)
	}

	ref := obs["netdev"]
	// Absolute spot-checks, once (the schedule fixes every number).
	if ref.Stats.Missed != 17 {
		t.Errorf("Missed = %d, want 17 (12 burst + 5 outage)", ref.Stats.Missed)
	}
	if ref.Stats.UpcallQueueDrops != 9 {
		t.Errorf("UpcallQueueDrops = %d, want 9 (8 burst + 1 outage)", ref.Stats.UpcallQueueDrops)
	}
	if ref.Stats.MalformedDrops != 3 {
		t.Errorf("MalformedDrops = %d, want 3", ref.Stats.MalformedDrops)
	}
	if ref.Stats.Lost != 4 {
		t.Errorf("Lost = %d, want 4 (the admitted outage packets)", ref.Stats.Lost)
	}
	if ref.Stats.Processed != 26 {
		t.Errorf("Processed = %d, want 26", ref.Stats.Processed)
	}
	if ref.Delivered != 4 || ref.LinkDrops != 6 {
		t.Errorf("delivered=%d linkDrops=%d, want 4/6", ref.Delivered, ref.LinkDrops)
	}
	if ref.Stats.UpcallRetries == 0 {
		t.Error("no backoff retries observed")
	}
	if ref.Stats.UpcallErrors != 1 {
		t.Errorf("UpcallErrors = %d, want 1 (first exhausted retry installs the negative flow; later packets dedup against it)", ref.Stats.UpcallErrors)
	}
	if ref.FlowsAfterFail != 1 {
		t.Errorf("FlowsAfterFail = %d, want exactly the negative flow", ref.FlowsAfterFail)
	}
	if ref.FlowsAfterExpiry != 0 {
		t.Errorf("FlowsAfterExpiry = %d, want 0 (TTL passed)", ref.FlowsAfterExpiry)
	}
	if ref.LinkTrips != 6 || ref.LinkWindows != 1 || ref.UpcallWindows != 2 {
		t.Errorf("injector counters: linkTrips=%d linkWindows=%d upcallWindows=%d, want 6/1/2",
			ref.LinkTrips, ref.LinkWindows, ref.UpcallWindows)
	}

	// Conservation: every fast-path pass is delivered or counted in exactly
	// one drop class (link drops happen beyond the dpif boundary, in the
	// test's port, so they are on the delivered side of the datapath).
	for _, name := range types {
		o := obs[name]
		if got := o.Delivered + o.LinkDrops + o.Stats.Lost + o.Stats.UpcallQueueDrops + o.Stats.MalformedDrops; got != o.Stats.Processed {
			t.Errorf("%s: conservation broken: delivered %d + link %d + lost %d + queue %d + malformed %d != processed %d",
				name, o.Delivered, o.LinkDrops, o.Stats.Lost,
				o.Stats.UpcallQueueDrops, o.Stats.MalformedDrops, o.Stats.Processed)
		}
	}

	// Cross-provider: identical counter semantics; only the cost fingerprint
	// may differ.
	ref.Busy, ref.CPUs = 0, nil
	for _, name := range types {
		o := obs[name]
		o.Busy, o.CPUs = 0, nil
		if !reflect.DeepEqual(o, ref) {
			t.Errorf("provider %q diverges from netdev under faults:\n  %q: %+v\n  netdev: %+v",
				name, name, o, ref)
		}
	}
}

// TestFaultSchedulePinned pins each provider's full fault observation,
// virtual-time cost included, to the values recorded before the two
// datapaths' slow paths were merged into package upcall. The determinism
// test only compares a run against itself and the conformance test clears
// the costs, so without this pin a change that moved handler cost between
// CPUs or categories would pass both.
func TestFaultSchedulePinned(t *testing.T) {
	stats := dpif.Stats{Hits: 13, Missed: 17, Lost: 4, UpcallQueueDrops: 9,
		UpcallRetries: 16, UpcallErrors: 1, MalformedDrops: 3, Processed: 26}
	want := map[string]struct {
		busy sim.Time
		cpus []string
	}{
		"netdev":  {1081765, []string{"pmd0 1765/0/0/0", "upcall-handler 1080000/0/0/0"}},
		"netlink": {1093730, []string{"dpif-exec 0/0/13730/0", "ovs-handler 0/1080000/0/0"}},
		"ebpf":    {1095749, []string{"dpif-exec 0/0/15749/0", "ovs-handler 0/1080000/0/0"}},
	}
	for _, name := range dpif.Types() {
		w, ok := want[name]
		if !ok {
			t.Errorf("provider %q has no pinned observation", name)
			continue
		}
		got := runFaultScenario(t, name)
		pinned := faultObservation{Stats: stats, Delivered: 4, LinkDrops: 6,
			HookUpcalls: 18, FlowsAfterFail: 1, FlowsAfterExpiry: 0,
			UpcallWindows: 2, UpcallTrips: 17, LinkWindows: 1, LinkTrips: 6,
			Busy: w.busy, CPUs: w.cpus}
		if !reflect.DeepEqual(got, pinned) {
			t.Errorf("%s: fault observation moved:\n  got:  %+v\n  want: %+v", name, got, pinned)
		}
	}
}

// TestFaultScheduleDeterminism runs the full fault schedule twice per
// provider with the same seed and requires byte-identical observations —
// including the virtual-time cost fingerprint, which covers backoff jitter,
// retry ordering, and negative-flow expiry.
func TestFaultScheduleDeterminism(t *testing.T) {
	for _, name := range dpif.Types() {
		a := runFaultScenario(t, name)
		b := runFaultScenario(t, name)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two seeded runs diverge:\n  run1: %+v\n  run2: %+v", name, a, b)
		}
	}
}

// TestRegistry covers the registry itself: unknown types fail, duplicate
// registration panics.
func TestRegistry(t *testing.T) {
	if _, err := dpif.Open("nosuch", dpif.Config{}); err == nil {
		t.Fatal("Open of unregistered type succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	dpif.Register("netdev", nil)
}

// TestOutputBeforeRewriteSendsCopy runs output:2, set_eth_dst, output:3 on
// every provider. The first port must get the frame as it was when output
// ran: a rewrite that follows an output must not reach the packet that
// output already handed over.
func TestOutputBeforeRewriteSendsCopy(t *testing.T) {
	rewritten := hdr.MAC{0x02, 0xcc, 0, 0, 0, 1}
	for _, name := range dpif.Types() {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			pl := ofproto.NewPipeline()
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match: ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
				Actions: []ofproto.Action{ofproto.Output(2), ofproto.SetEthDst(rewritten),
					ofproto.Output(3)}})
			d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			// Keep the delivered packets themselves, not copies of their
			// bytes: an aliased packet shows the later rewrite.
			got := map[uint32][]*packet.Packet{}
			for _, port := range []uint32{1, 2, 3} {
				port := port
				if err := d.PortAdd(dpif.TxPort{PortID: port, PortName: fmt.Sprint("p", port),
					Deliver: func(p *packet.Packet) { got[port] = append(got[port], p) }}); err != nil {
					t.Fatalf("PortAdd(%d): %v", port, err)
				}
			}
			p := scenarioPacket()
			orig, _ := hdr.ParseEthernet(p.Data)
			d.Execute(p)
			eng.RunUntil(sim.Millisecond)
			if len(got[2]) != 1 || len(got[3]) != 1 {
				t.Fatalf("outputs = %d, %d, want 1 each", len(got[2]), len(got[3]))
			}
			if eth, _ := hdr.ParseEthernet(got[2][0].Data); eth.Dst != orig.Dst {
				t.Errorf("port 2 got dst %s, want the original %s", eth.Dst, orig.Dst)
			}
			if eth, _ := hdr.ParseEthernet(got[3][0].Data); eth.Dst != rewritten {
				t.Errorf("port 3 got dst %s, want the rewritten %s", eth.Dst, rewritten)
			}
		})
	}
}
