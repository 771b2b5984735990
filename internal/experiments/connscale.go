package experiments

// The connscale scenario measures per-user connection state at scale:
// sustained datapath capacity with the conntrack table holding 10k to 1M
// concurrent established connections (ROADMAP item: stateful scaling),
// swept across shard counts, plus a SYN-flood arm that measures what the
// graceful-degradation ladder buys — established-connection goodput held
// while embryonic attack state is shed.
//
// The steady points model a stateful firewall: every packet recirculates
// through ct(commit) and a second classifier pass matches on ct_state
// (established or legitimate-new to the sink, everything else shed) — the
// NSX firewall shape of fig8, scaled to a million tracked connections.
// Connections are established cheaply via loose TCP pickup (one mid-stream
// ACK each, the nf_conntrack_tcp_loose behavior), then Loose is switched
// off so a wrongly evicted established connection would visibly misroute
// as invalid instead of being silently re-adopted.
//
// The SYN-flood arm runs the same bed twice — ladder limits
// (SetZoneLimits) vs the legacy hard limit (SetZoneLimit) — and compares
// goodput under flood to the no-flood baseline of the same run. All
// measurements are in the virtual domain — the JSON output is
// byte-identical run to run at fixed defaults.

import (
	"fmt"

	"ovsxdp/internal/api"
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// ConnscalePoint is one measured configuration. Steady points sweep
// (concurrent connections x shards); the synflood point (Flood true) adds
// the goodput-held comparison.
type ConnscalePoint struct {
	Name    string  `json:"name"`
	Conns   int     `json:"conns"`
	Shards  int     `json:"shards"`
	RatePPS float64 `json:"rate_pps"`
	// WindowMs is the measured window (per phase, for the flood arm).
	WindowMs float64 `json:"window_ms"`
	// Packets/Delivered cover the measured window: executed packets and
	// sink-port deliveries (established + admitted-new goodput).
	Packets   uint64 `json:"packets"`
	Delivered uint64 `json:"delivered"`
	// NsPerPkt is PMD busy nanoseconds per packet over the window
	// (two classifier passes + conntrack lookup each); CapacityMpps is
	// its reciprocal.
	NsPerPkt     float64 `json:"ns_per_pkt"`
	CapacityMpps float64 `json:"capacity_mpps"`
	// PeakConns is the tracker's live-connection count at window end;
	// ShardImbalance the max/mean shard occupancy at that instant.
	PeakConns      int     `json:"peak_conns"`
	ShardImbalance float64 `json:"shard_imbalance"`
	// Whole-run tracker counters after the drain; the conservation
	// ledger requires Created == Expired + EarlyDrops + Evicted +
	// LiveAfterDrain at every point.
	Created        uint64 `json:"created"`
	Expired        uint64 `json:"expired"`
	EarlyDrops     uint64 `json:"early_drops"`
	Evicted        uint64 `json:"evicted"`
	TableFull      uint64 `json:"table_full"`
	LiveAfterDrain int    `json:"live_after_drain"`
	LedgerOK       bool   `json:"ledger_ok"`

	// SYN-flood arm only.
	Flood    bool    `json:"flood,omitempty"`
	FloodPPS float64 `json:"flood_pps,omitempty"`
	// BaselineMpps/FloodMpps are goodput (established + legitimate-new
	// deliveries) before and during the flood with the ladder on;
	// HeldPct is their ratio, EstHeldPct the same for established
	// traffic alone, and NoLadderHeldPct the ratio the legacy
	// hard-reject limit manages on an identical schedule.
	BaselineMpps    float64 `json:"baseline_mpps,omitempty"`
	FloodMpps       float64 `json:"flood_mpps,omitempty"`
	HeldPct         float64 `json:"held_pct,omitempty"`
	EstHeldPct      float64 `json:"est_held_pct,omitempty"`
	NoLadderHeldPct float64 `json:"no_ladder_held_pct,omitempty"`
}

// ConnscaleResult is the BENCH_connscale.json schema.
type ConnscaleResult struct {
	api.Envelope
	Points []ConnscalePoint `json:"points"`
}

// connscaleConfig parameterizes one steady point.
type connscaleConfig struct {
	name    string
	conns   int
	shards  int
	ratePPS float64
	window  sim.Time
}

// connscalePoints returns the steady sweep for a profile, cheapest first.
// The 1M point runs at three shard counts to expose what partitioning is
// worth at that occupancy.
func connscalePoints(quick bool) []connscaleConfig {
	if quick {
		return []connscaleConfig{
			{"10k", 10_000, 8, 2e6, 10 * sim.Millisecond},
		}
	}
	return []connscaleConfig{
		{"10k", 10_000, 8, 2e6, 20 * sim.Millisecond},
		{"100k", 100_000, 8, 8e6, 40 * sim.Millisecond},
		{"1m-s1", 1_000_000, 1, 2e7, 100 * sim.Millisecond},
		{"1m", 1_000_000, 8, 2e7, 100 * sim.Millisecond},
		{"1m-s32", 1_000_000, 32, 2e7, 100 * sim.Millisecond},
	}
}

// synfloodConfig parameterizes the flood arm.
type synfloodConfig struct {
	name       string
	estConns   int
	estRate    float64 // established-connection data packets/s
	newRate    float64 // legitimate new SYNs/s (port 80)
	floodRate  float64 // attack SYNs/s (port 81)
	synTimeout sim.Time
	estTimeout sim.Time
	soft, hard int
	warm       sim.Time // settle time after each phase change
	window     sim.Time // measured window per phase
}

func connscaleFlood(quick bool) synfloodConfig {
	if quick {
		return synfloodConfig{
			name: "synflood", estConns: 10_000,
			estRate: 2e6, newRate: 1e6, floodRate: 2e6,
			synTimeout: 2 * sim.Millisecond, estTimeout: 30 * sim.Millisecond,
			soft: 13_000, hard: 14_000,
			warm: 4 * sim.Millisecond, window: 8 * sim.Millisecond,
		}
	}
	// Sized so the no-flood phase sits below the soft limit (50k
	// established + 2e6/s x 4ms = 8k embryonic = 58k < 60k) while the
	// flood pushes the unlimited equilibrium (50k + 8e6/s x 4ms = 82k)
	// past the hard limit — the ladder must engage, and the legacy limit
	// must visibly refuse legitimate commits.
	return synfloodConfig{
		name: "synflood", estConns: 50_000,
		estRate: 3e6, newRate: 2e6, floodRate: 6e6,
		synTimeout: 4 * sim.Millisecond, estTimeout: 60 * sim.Millisecond,
		soft: 60_000, hard: 70_000,
		warm: 8 * sim.Millisecond, window: 25 * sim.Millisecond,
	}
}

// connSrcIP encodes a generator class (first octet) and connection id into
// the source address — established traffic is 10.x, legitimate new 11.x,
// flood 12.x, so the sink can split goodput without extra state.
func connSrcIP(class byte, id int) hdr.IP4 {
	return hdr.MakeIP4(class, byte(id>>16), byte(id>>8), byte(id))
}

// connGen drives TCP traffic by byte-patching the source IP into a
// prebuilt template frame — no per-packet allocation. With cycle set it
// round-robins over [0, conns) (established traffic); otherwise every
// packet is a fresh connection id (SYN arrivals). Inter-arrival times
// carry +-25% deterministic jitter from a per-class LCG: perfectly
// periodic sources phase-lock with the equally periodic expiry stream
// (every timeout is arrival + exact synTO), which would let one traffic
// class deterministically absorb every table-full refusal.
type connGen struct {
	eng      *sim.Engine
	dp       dpif.Dpif
	template []byte
	pool     *packet.Pool
	class    byte
	conns    int
	cycle    bool
	cursor   int
	stopped  bool
	sent     uint64
	rng      uint64
}

func newConnGen(eng *sim.Engine, dp dpif.Dpif, class byte, conns int, cycle bool, dstPort uint16, tcpFlags uint8) *connGen {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 2}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 2}).
		IPv4H(connSrcIP(class, 0), hdr.MakeIP4(10, 255, 0, 1), 64).
		TCPH(1000, dstPort, 1, 0, tcpFlags).PadTo(64).Build()
	return &connGen{eng: eng, dp: dp, template: frame,
		pool:  packet.NewPool(64, len(frame), true),
		class: class, conns: conns, cycle: cycle,
		rng: uint64(class)*0x9e3779b97f4a7c15 + 1}
}

// emit executes one packet for the next connection id.
func (g *connGen) emit() {
	id := g.cursor
	g.cursor++
	if g.cycle && g.cursor >= g.conns {
		g.cursor = 0
	}
	ip := connSrcIP(g.class, id)
	g.template[srcIPOffset] = byte(ip >> 24)
	g.template[srcIPOffset+1] = byte(ip >> 16)
	g.template[srcIPOffset+2] = byte(ip >> 8)
	g.template[srcIPOffset+3] = byte(ip)
	p := g.pool.GetCopy(g.template)
	p.InPort = 1
	g.sent++
	g.dp.Execute(p)
}

// run self-schedules packet arrivals at ratePPS until stopped.
func (g *connGen) run(ratePPS float64) {
	interval := sim.Time(float64(sim.Second) / ratePPS)
	if interval <= 0 {
		interval = 1
	}
	next := g.eng.Now()
	var tick func()
	tick = func() {
		if g.stopped {
			return
		}
		g.emit()
		g.rng = g.rng*6364136223846793005 + 1442695040888963407
		frac := float64(g.rng>>11) / (1 << 53)
		next += sim.Time(float64(interval) * (0.75 + 0.5*frac))
		g.eng.ScheduleAt(next, tick)
	}
	g.eng.ScheduleAt(next, tick)
}

// connscaleZone is the conntrack zone every connscale flow commits into.
const connscaleZone uint16 = 7

// connBed is an Execute-driven netdev bed with the stateful-firewall
// pipeline: pass 1 recirculates through ct(commit), pass 2 matches
// ct_state — established or legitimate-new (port 80) traffic to the sink,
// everything else (attack SYNs, refused commits, invalid) to the shed
// port.
type connBed struct {
	eng *sim.Engine
	d   dpif.Dpif
	ct  *conntrack.Table

	delivered    uint64 // sink-port packets (goodput)
	estDelivered uint64 // of delivered: established traffic (10.x)
	shed         uint64 // shed-port packets
}

func newConnBed(shards int) *connBed {
	b := &connBed{eng: sim.NewEngine(1)}
	b.d = mustOpen("netdev", dpif.Config{Eng: b.eng, Pipeline: ofproto.NewPipeline()})
	if err := b.d.SetConfig(map[string]string{"ct-shards": fmt.Sprintf("%d", shards)}); err != nil {
		panic(err)
	}
	if err := b.d.PortAdd(dpif.TxPort{PortID: 2, PortName: "sink",
		Deliver: func(p *packet.Packet) {
			b.delivered++
			if p.Data[srcIPOffset] == 10 {
				b.estDelivered++
			}
		}}); err != nil {
		panic(err)
	}
	if err := b.d.PortAdd(dpif.TxPort{PortID: 3, PortName: "shed",
		Deliver: func(p *packet.Packet) { b.shed++ }}); err != nil {
		panic(err)
	}

	maskR0 := flow.NewMaskBuilder().InPort().RecircID().Build()
	maskR1 := flow.NewMaskBuilder().RecircID().
		CtState(uint8(packet.CtNew | packet.CtEstablished | packet.CtInvalid)).TPDst().Build()
	commit := ofproto.NewDPActions(ofproto.DPAction{Type: ofproto.DPCT, Zone: connscaleZone, Commit: true, RecircID: 1})
	admit := ofproto.NewDPActions(ofproto.DPAction{Type: ofproto.DPOutput, Port: 2})
	shed := ofproto.NewDPActions(ofproto.DPAction{Type: ofproto.DPOutput, Port: 3})
	b.d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		f := key.Unpack()
		if f.RecircID == 0 {
			return ofproto.Megaflow{Mask: maskR0, Actions: commit}, nil
		}
		out := shed
		switch {
		case uint8(f.CtState)&uint8(packet.CtEstablished) != 0:
			out = admit
		case uint8(f.CtState)&uint8(packet.CtNew) != 0 && f.TPDst == 80:
			out = admit // legitimate new connection admitted
		}
		return ofproto.Megaflow{Mask: maskR1, Actions: out}, nil
	})

	b.ct = b.d.(*dpif.Netdev).Datapath().Ct
	return b
}

// drain stops all traffic sources and runs virtual time forward until the
// wheel has expired every connection (bounded at 8 timeout periods).
func (b *connBed) drain(gens []*connGen, step sim.Time) {
	for _, g := range gens {
		g.stopped = true
	}
	now := b.eng.Now()
	for i := 0; i < 8 && b.ct.Len() > 0; i++ {
		now += step
		b.eng.RunUntil(now)
	}
}

// ledger fills the whole-run tracker counters and checks conservation:
// every created connection must be accounted for as expired, early-dropped,
// evicted, or still live.
func (b *connBed) ledger(pt *ConnscalePoint) {
	c := b.ct.Counters()
	pt.Created = c.Created
	pt.Expired = c.Expired
	pt.EarlyDrops = c.EarlyDrops
	pt.Evicted = c.Evicted
	pt.TableFull = c.TableFull
	pt.LiveAfterDrain = b.ct.Len()
	pt.LedgerOK = c.Created == c.Expired+c.EarlyDrops+c.Evicted+uint64(pt.LiveAfterDrain)
}

// runConnscalePoint executes one steady configuration: establish N
// connections via loose pickup, measure a steady window with every packet
// recirculating through conntrack, then drain through the wheel.
func runConnscalePoint(c connscaleConfig) ConnscalePoint {
	b := newConnBed(c.shards)

	// Round-robin gap between touches of one connection; timeouts sized
	// so established connections comfortably survive the gap but the
	// drain completes in a few steps.
	gap := sim.Time(float64(c.conns) / c.ratePPS * float64(sim.Second))
	estTO := 5 * gap
	if estTO < 20*sim.Millisecond {
		estTO = 20 * sim.Millisecond
	}
	b.ct.Timeouts = conntrack.Timeouts{
		SynSent: estTO, Established: estTO, UDP: estTO, Fin: estTO,
	}

	g := newConnGen(b.eng, b.d, 10, c.conns, true, 80, hdr.TCPAck)
	g.run(c.ratePPS)

	// Fill: one full round establishes every connection (loose pickup).
	fill := gap + 2*sim.Millisecond
	b.eng.RunUntil(fill)
	b.ct.Loose = false // wrongful evictions now misroute visibly

	pmd := b.d.(*dpif.Netdev).Datapath().PMDs()[0]
	for _, cpu := range b.eng.CPUs() {
		cpu.ResetAccounting()
	}
	sent0, delivered0 := g.sent, b.delivered

	b.eng.RunUntil(fill + c.window)

	pkts := g.sent - sent0
	pt := ConnscalePoint{
		Name: c.name, Conns: c.conns, Shards: c.shards,
		RatePPS:   c.ratePPS,
		WindowMs:  float64(c.window) / float64(sim.Millisecond),
		Packets:   pkts,
		Delivered: b.delivered - delivered0,
		PeakConns: b.ct.Len(),
	}
	if pkts > 0 {
		pt.NsPerPkt = float64(pmd.CPU.BusyTotal()) / float64(pkts)
		pt.CapacityMpps = 1e3 / pt.NsPerPkt
	}
	sizes := b.ct.ShardSizes(nil)
	maxSz, total := 0, 0
	for _, n := range sizes {
		total += n
		if n > maxSz {
			maxSz = n
		}
	}
	if total > 0 {
		pt.ShardImbalance = float64(maxSz) * float64(len(sizes)) / float64(total)
	}

	b.drain([]*connGen{g}, estTO)
	b.ledger(&pt)
	return pt
}

// runSynfloodArm runs the flood schedule once — fill, no-flood window,
// flood window — under either the ladder (SetZoneLimits) or the legacy
// hard limit (SetZoneLimit). It reports goodput for both windows, the
// established-only share, and the bed for counter collection.
func runSynfloodArm(c synfloodConfig, ladder bool) (baseGood, floodGood, baseEst, floodEst uint64, bed *connBed, gens []*connGen) {
	b := newConnBed(8)
	b.ct.Timeouts = conntrack.Timeouts{
		SynSent: c.synTimeout, Established: c.estTimeout,
		UDP: c.estTimeout, Fin: c.synTimeout,
	}

	est := newConnGen(b.eng, b.d, 10, c.estConns, true, 80, hdr.TCPAck)
	est.run(c.estRate)
	fill := sim.Time(float64(c.estConns)/c.estRate*float64(sim.Second)) + 2*sim.Millisecond
	b.eng.RunUntil(fill)
	b.ct.Loose = false
	if ladder {
		b.ct.SetZoneLimits(connscaleZone, c.soft, c.hard)
	} else {
		b.ct.SetZoneLimit(connscaleZone, c.hard)
	}

	// Phase A: legitimate connection churn, no flood.
	legit := newConnGen(b.eng, b.d, 11, 0, false, 80, hdr.TCPSyn)
	legit.run(c.newRate)
	b.eng.RunUntil(fill + c.warm)
	d0, e0 := b.delivered, b.estDelivered
	b.eng.RunUntil(fill + c.warm + c.window)
	baseGood, baseEst = b.delivered-d0, b.estDelivered-e0

	// Phase B: the SYN flood joins.
	floodStart := fill + c.warm + c.window
	flood := newConnGen(b.eng, b.d, 12, 0, false, 81, hdr.TCPSyn)
	flood.run(c.floodRate)
	b.eng.RunUntil(floodStart + c.warm)
	d0, e0 = b.delivered, b.estDelivered
	b.eng.RunUntil(floodStart + c.warm + c.window)
	floodGood, floodEst = b.delivered-d0, b.estDelivered-e0

	return baseGood, floodGood, baseEst, floodEst, b, []*connGen{est, legit, flood}
}

// runSynflood measures the flood point: the ladder arm provides the
// headline held-goodput numbers and counters; the legacy hard-limit arm
// provides the comparison ratio.
func runSynflood(c synfloodConfig) ConnscalePoint {
	winS := float64(c.window) / float64(sim.Second)

	baseGood, floodGood, baseEst, floodEst, bed, gens := runSynfloodArm(c, true)
	pt := ConnscalePoint{
		Name: c.name, Conns: c.estConns, Shards: 8,
		RatePPS:   c.estRate + c.newRate,
		WindowMs:  float64(c.window) / float64(sim.Millisecond),
		Packets:   baseGood + floodGood, // goodput packets across both windows
		Delivered: baseGood + floodGood,
		Flood:     true,
		FloodPPS:  c.floodRate,
		PeakConns: bed.ct.Len(),
	}
	pt.BaselineMpps = float64(baseGood) / winS / 1e6
	pt.FloodMpps = float64(floodGood) / winS / 1e6
	if baseGood > 0 {
		pt.HeldPct = 100 * float64(floodGood) / float64(baseGood)
	}
	if baseEst > 0 {
		pt.EstHeldPct = 100 * float64(floodEst) / float64(baseEst)
	}
	bed.drain(gens, c.estTimeout)
	bed.ledger(&pt)

	baseGood, floodGood, _, _, bed2, gens2 := runSynfloodArm(c, false)
	if baseGood > 0 {
		pt.NoLadderHeldPct = 100 * float64(floodGood) / float64(baseGood)
	}
	bed2.drain(gens2, c.estTimeout)
	var pt2 ConnscalePoint
	bed2.ledger(&pt2)
	pt.LedgerOK = pt.LedgerOK && pt2.LedgerOK

	return pt
}

// RunConnscale executes the selected connscale points for a profile and
// returns the structured result (the scenario wrapper renders and persists
// it).
func RunConnscale(rc RunConfig) ConnscaleResult {
	quick := rc.Profile.Window < Full.Window
	profileName := "full"
	if quick {
		profileName = "quick"
	}
	res := ConnscaleResult{Envelope: api.NewEnvelope("connscale", 1, profileName)}
	for _, c := range connscalePoints(quick) {
		if !rc.wants(c.name) {
			continue
		}
		res.Points = append(res.Points, runConnscalePoint(c))
	}
	fc := connscaleFlood(quick)
	if rc.wants(fc.name) {
		res.Points = append(res.Points, runSynflood(fc))
	}
	return res
}

func init() {
	register(Experiment{
		ID:       "connscale",
		Title:    "million-connection conntrack: capacity vs table size + SYN-flood degradation",
		Scenario: true,
		Points: func(p Profile) []string {
			quick := p.Window < Full.Window
			steady := pointNames(connscalePoints(quick), func(c connscaleConfig) string { return c.name })
			return append(steady, connscaleFlood(quick).name)
		},
		Run: func(rc RunConfig) *Report {
			res := RunConnscale(rc)
			rep := &Report{ID: "connscale",
				Title: "conntrack scaling sweep (concurrent connections x shards, wheel expiry)"}
			for _, pt := range res.Points {
				if pt.Flood {
					rep.Add(pt.Name+": goodput held under flood (ladder)", pt.HeldPct, 0, "%")
					rep.Add(pt.Name+": established goodput held", pt.EstHeldPct, 0, "%")
					rep.Add(pt.Name+": goodput held (legacy hard limit)", pt.NoLadderHeldPct, 0, "%")
					rep.Add(pt.Name+": baseline goodput", pt.BaselineMpps, 0, "Mpps")
				} else {
					rep.Add(pt.Name+" conns: capacity per core", pt.CapacityMpps, 0, "Mpps")
					rep.Add(pt.Name+" conns: busy time per packet", pt.NsPerPkt, 0, "ns/pkt")
					rep.Add(pt.Name+" conns: shard imbalance", pt.ShardImbalance, 0, "x mean")
				}
				ledger := "ok"
				if !pt.LedgerOK {
					ledger = "BROKEN"
				}
				rep.AddNote("%s: created %d = expired %d + early-drop %d + evicted %d + live %d (ledger %s); table-full %d, peak %d conns",
					pt.Name, pt.Created, pt.Expired, pt.EarlyDrops, pt.Evicted,
					pt.LiveAfterDrain, ledger, pt.TableFull, pt.PeakConns)
			}
			rc.persist(rep, res)
			return rep
		},
	})
}
