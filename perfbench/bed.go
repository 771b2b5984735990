package main

// Bed construction. Every call into a path that has two implementations
// today — the sweep vs the wheel revalidator, lookup-time vs wheel
// conntrack expiry, the rxq shim vs the assignment layer, core.Options
// fields vs typed other_config — is made here and nowhere else, always on
// the newer side, so collapsing one of those pairs edits this file and no
// workload.

import (
	"fmt"
	"runtime"
	"time"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// otherConfig is the datapath configuration, applied through
// Dpif.SetConfig when the bed opens its datapath. Every value is spelled
// out (they are today's defaults) so nothing depends on package-level
// overlays.
var otherConfig = map[string]string{
	"pmd-rxq-assign":      "roundrobin",
	"pmd-auto-lb":         "false",
	"emc-enable":          "true",
	"emc-insert-inv-prob": "1",
	"smc-enable":          "false",
	"batch-dedup":         "false",
	"upcall-queue-cap":    "0",
	"ct-shards":           "8",
	"hw-offload":          "false",
}

// bed is one built P2P testbed: generator -> NIC A -> XDP -> AF_XDP ->
// one PMD (EMC -> dpcls -> upcall -> conntrack -> actions) -> NIC B ->
// wire.
type bed struct {
	w    *workload
	rate float64
	eng  *sim.Engine
	p2p  *experiments.Bed
	dp   *dpif.Netdev
	pmd  *core.PMD
	pl   *ofproto.Pipeline
	ct   *conntrack.Table
	rv   *dpif.WheelRevalidator
	gen  *gen
	wire *wire
	tr   *tracer // nil when untraced
	// upcall is the slow-path handler registered with the datapath; the
	// prefill translates through it too.
	upcall dpif.UpcallFunc
	// setup is the host time spent building and filling the bed; start
	// is the virtual time traffic begins, after the fill.
	setup time.Duration
	start sim.Time
}

// buildBed constructs and fills a bed for workload w at an offered rate.
// tr, when non-nil, records spans around the benchmark's calls into the
// bed (NIC receive, upcall translation, prefill).
func buildBed(w *workload, rate float64, seed uint64, stamp bool, tr *tracer) (*bed, error) {
	runtime.GC()
	start := time.Now()
	pl := w.pipeline()
	p2p := experiments.NewP2PBed(experiments.BedConfig{
		Kind: experiments.KindAFXDP, Flows: 1, FrameSize: 64,
		Queues: 1, PMDs: 1, Mode: core.ModePoll,
		LinkRate: costmodel.LinkRate25G, Lock: afxdp.LockSpinBatched,
		Opts: core.DefaultOptions(), Seed: 1,
		Pipeline: pl, Other: otherConfig,
	})
	nd, ok := p2p.DP.(*dpif.Netdev)
	if !ok {
		return nil, fmt.Errorf("bed: datapath is %s, want netdev", p2p.DP.Type())
	}
	b := &bed{w: w, rate: rate, eng: p2p.Eng, p2p: p2p, dp: nd, pl: pl, tr: tr,
		pmd: nd.Datapath().PMDs()[0], ct: nd.Datapath().Ct}

	// The upcall seam is installed identically in traced and untraced
	// beds; only the traced one wraps it in a span.
	b.upcall = pl.Translate
	if tr != nil {
		b.upcall = tr.translate(pl)
	}
	nd.SetUpcall(b.upcall)
	b.ct.EnableWheelExpiry(true)
	to := w.ctTimeout(rate)
	b.ct.Timeouts = conntrack.Timeouts{SynSent: to, Established: to, UDP: to, Fin: to}
	// The revalidator attaches before any flow exists so the flow hook
	// registers every install, prefilled or upcalled.
	b.rv = dpif.StartWheelRevalidator(b.eng, nd, w.revalIdle(rate))

	if tr != nil {
		tr.eng = b.eng
	}
	b.gen = newGen(b.eng, w, seed, rate, stamp)
	b.wire = &wire{eng: b.eng, g: b.gen}
	b.gen.sink = p2p.NICA.Receive
	if tr != nil {
		b.gen.sink = tr.receive(p2p.NICA)
	}
	p2p.NICB.ConnectWire(b.wire.onB)
	p2p.NICA.ConnectWire(b.wire.onA)

	if err := b.prefill(seed); err != nil {
		return nil, err
	}
	b.setup = time.Since(start)
	return b, nil
}

// fillSpan is the virtual time over which prefill installs are spread.
// Installs land about ten per microsecond, as an upcall-driven fill would
// pace them; installing a whole table at one instant would also put every
// first expiry deadline into one timer-wheel slot.
const fillSpan = 10 * sim.Millisecond

// prefill installs what the workload's steady state holds before traffic
// starts: churn's initial window of megaflows, translated through the
// pipeline and installed with FlowPut exactly as an upcall would, and the
// firewall's established connections, committed through conntrack by each
// connection's first packet (loose pickup), after which loose pickup is
// switched off so a wrongly expired connection shows up as invalid.
// Traffic starts once the fill is done.
func (b *bed) prefill(seed uint64) error {
	w := b.w
	if !w.prefill && !w.stateful {
		return nil
	}
	t := newTemplate(w.tcp, w.sizes[0])
	p := packet.New(make([]byte, len(t.data)))
	var err error
	id := 0
	var install func()
	install = func() {
		copy(p.Data, t.data)
		p.ResetMetadata()
		b.gen.fill(p.Data, &t, w.tuple(seed, id), 0)
		p.InPort = 1
		if w.prefill {
			key := flow.Extract(p)
			mf, terr := b.upcall(key)
			if terr != nil && err == nil {
				err = fmt.Errorf("prefill flow %d: %w", id, terr)
			}
			b.dp.FlowPut(key, mf.Mask, mf.Actions)
		}
		if w.stateful {
			b.ct.Process(p, ctZone, true, conntrack.NAT{})
			if p.CtState&packet.CtEstablished == 0 && err == nil {
				err = fmt.Errorf("prefill connection %d: ct_state %v", id, p.CtState)
			}
		}
		if id++; id < w.flows {
			b.eng.ScheduleAt(sim.Time(id)*fillSpan/sim.Time(w.flows), install)
		}
	}
	b.eng.ScheduleAt(0, install)
	b.eng.RunUntil(fillSpan)
	b.ct.Loose = false
	b.start = fillSpan
	return err
}

// drain runs virtual time forward with no traffic until the revalidator
// has expired every megaflow and conntrack every connection, then checks
// both conservation ledgers: installs = evictions + live, and created =
// expired + early-dropped + evicted + live. Live must reach zero.
func (b *bed) drain() error {
	b.pmd.Stop() // no idle polling while the tables drain
	step := max(b.rv.IdleTimeout, b.ct.Timeouts.Established)
	now := b.eng.Now()
	for i := 0; i < 8 && (b.dp.Stats().Flows > 0 || b.ct.Len() > 0); i++ {
		now += step
		b.eng.RunUntil(now)
	}
	live := b.dp.Stats().Flows
	if b.rv.Installs != b.rv.Evicted+uint64(live) || live != 0 {
		return fmt.Errorf("revalidator ledger: installs %d != evicted %d + live %d (live must drain to 0)",
			b.rv.Installs, b.rv.Evicted, live)
	}
	c := b.ct.Counters()
	if c.Created != c.Expired+c.EarlyDrops+c.Evicted+uint64(c.Conns) || c.Conns != 0 {
		return fmt.Errorf("conntrack ledger: created %d != expired %d + early-drop %d + evicted %d + live %d (live must drain to 0)",
			c.Created, c.Expired, c.EarlyDrops, c.Evicted, c.Conns)
	}
	b.rv.Stop()
	return nil
}

// rxLedger checks that every offered packet is accounted for once traffic
// has drained: delivered on either wire, or counted by exactly one drop
// counter (NIC rings, AF_XDP rings, tx rings, datapath drops, upcall
// queue, malformed).
func (b *bed) rxLedger() error {
	s := b.dp.Stats()
	drops := b.p2p.Drops() + s.Lost + s.UpcallQueueDrops + s.MalformedDrops
	got := b.wire.delivered + b.wire.wrongPort + drops
	if sent := b.gen.sent(); sent != got {
		return fmt.Errorf("rx ledger: offered %d != delivered %d + wrong-port %d + drops %d",
			sent, b.wire.delivered, b.wire.wrongPort, drops)
	}
	return nil
}

// xskDrops sums NIC A's AF_XDP receive-ring drops.
func (b *bed) xskDrops() uint64 {
	var n uint64
	port, ok := b.dp.Datapath().Port(1).(*core.AFXDPPort)
	if !ok {
		return 0
	}
	for q := 0; q < port.NumRxQueues(); q++ {
		x := port.XSK(q)
		n += x.RxDropFill + x.RxDropRing
	}
	return n
}
