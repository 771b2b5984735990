package core

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/upcall"
)

// Caps describes a port's transmit-side hardware offloads. The AF_XDP gap
// — no checksum or TSO offload yet (Table 2 O5, Section 5.5) — is the
// difference between AFXDPCaps and the others.
type Caps struct {
	TxCsum bool
	TSO    bool
}

// PortCaps returns the offload capabilities for a known port type; the
// datapath consults this before transmitting packets that still carry
// CsumPartial or TSO state.
func PortCaps(p Port) Caps {
	switch p.(type) {
	case *AFXDPPort, *VethPort:
		// AF_XDP cannot reach the NIC's offload engines (Section 3.2
		// O5: "AF_XDP does not yet [support offloads]").
		return Caps{}
	default:
		// DPDK programs hardware offloads; vhost/tap negotiate
		// virtio offloads with the peer.
		return Caps{TxCsum: true, TSO: true}
	}
}

// Options are the datapath tunables; each maps to one of the paper's
// optimizations or an ablation DESIGN.md calls out.
type Options struct {
	// EMC enables the exact-match cache (ablation: the cache the kernel
	// maintainers rejected).
	EMC bool
	// SMC enables the signature match cache between the EMC and the
	// megaflow classifier (OVS's smc-enable=true, off by default): 4-byte
	// entries covering two orders of magnitude more flows than the EMC at
	// a slightly higher hit cost.
	SMC bool
	// SMCEntries overrides the signature cache capacity; zero uses
	// costmodel.SMCEntries (1<<20, as in OVS).
	SMCEntries int
	// EMCInsertInvProb is the inverse probability of inserting a flow into
	// the EMC after a miss resolves (OVS's emc-insert-inv-prob): a flow is
	// inserted with probability 1/N, so thrashing workloads stop churning
	// the EMC and stabilize in the SMC instead. Values <= 1 insert always
	// (the default) and consume no randomness, keeping default runs
	// byte-identical.
	EMCInsertInvProb int
	// BatchDedup enables batch-aware classification: packets of one rx
	// batch that share a flow key are classified once and the rest pay
	// only the per-packet flow-batch append (dp_netdev_input's per-flow
	// batching). Off by default; the per-packet path is unchanged.
	BatchDedup bool
	// MetadataPrealloc is O4: dp_packet metadata in a preallocated
	// contiguous array; disabled, every packet pays the mmap-allocation
	// cost.
	MetadataPrealloc bool
	// AssumeCsumOffload is O5's estimate: transmit a fixed checksum
	// value instead of computing one in software.
	AssumeCsumOffload bool
	// AssumeTSO models the expected AF_XDP TSO support (Figure 8's
	// "checksum and TSO" bars): oversized segments are passed through
	// without software segmentation.
	AssumeTSO bool
	// BatchSize is packets per poll (NETDEV_MAX_BURST).
	BatchSize int
	// ColdFlowThreshold is the EMC occupancy beyond which per-packet
	// flow state no longer fits the CPU cache and each packet pays
	// ColdFlowCacheMiss (the 1,000-flow effect of Figure 9).
	ColdFlowThreshold int
	// ContentionCentis is the multi-PMD contention coefficient (tenths;
	// see costmodel.UserContentionMilli). Zero disables contention
	// scaling; the experiment beds set the per-datapath calibrated
	// values for Figure 12.
	ContentionCentis int
	// Upcall configures the slow path: each PMD's bounded upcall queue
	// (the netdev analog of the kernel's per-port netlink queues), its
	// handler's service rate and retry policy, and negative flows. A zero
	// QueueCap upcalls inline on the PMD thread.
	Upcall upcall.Config
	// RxqAssign selects how the assignment layer distributes receive
	// queues across PMD threads (other_config:pmd-rxq-assign). The zero
	// value is round-robin, which reproduces the historical
	// queue-i-to-PMD-i wiring exactly.
	RxqAssign AssignPolicy
	// AutoLB enables the deterministic PMD auto-load-balancer
	// (other_config:pmd-auto-lb); off by default.
	AutoLB bool
	// AutoLBInterval overrides the balancer's virtual-time measurement
	// interval; zero uses costmodel.AutoLBDefaultInterval.
	AutoLBInterval sim.Time
	// AutoLBThresholdPct overrides the minimum per-PMD load-variance
	// improvement (percent) before a re-shard is applied; zero uses
	// costmodel.AutoLBDefaultThresholdPct.
	AutoLBThresholdPct int
	// TxLockMutex guards shared transmit queues (XPS) with a mutex
	// charged per packet instead of the default spinlock charged per
	// flush — the tx-side analog of the umempool O2/O3 toggles. It only
	// matters when a port has fewer txqs than the datapath has PMDs.
	TxLockMutex bool
	// Offload configures the hardware flow-offload engine
	// (other_config:hw-offload); the zero value disables it, so default
	// runs schedule no offload events and stay byte-identical.
	Offload OffloadOptions
}

// DefaultOptions returns the fully-optimized configuration (all of
// O1..O5 except that checksum offload remains estimated, as in the paper).
func DefaultOptions() Options {
	return Options{
		EMC:               true,
		MetadataPrealloc:  true,
		AssumeCsumOffload: false,
		BatchSize:         costmodel.BatchSize,
		ColdFlowThreshold: 512,
		Upcall:            upcall.DefaultConfig(),
	}
}

// Datapath is the shared state of the userspace datapath: ports, the
// ofproto pipeline upcalls translate against, conntrack, tunneling, and
// counters. Per-thread state (EMC, megaflow classifier) lives in each PMD.
type Datapath struct {
	Eng      *sim.Engine
	Pipeline *ofproto.Pipeline
	Ct       *conntrack.Table
	Encapper *tunnel.Encapper
	Opts     Options

	ports map[uint32]Port
	pmds  []*PMD
	// activePMDs counts PMD threads that have processed traffic, for the
	// contention model.
	activePMDs int
	// traceDepth, when positive, arms packet-lifecycle tracing with a ring
	// of that many records on every PMD (existing and future).
	traceDepth int

	// Slowpath is the upcall machinery shared with the kernel datapath:
	// the translator, the handler thread and the slow-path counters. Each
	// PMD has its own handler queue on it.
	Slowpath *upcall.Slowpath

	// flowHook, when set, is called for every freshly installed megaflow
	// on any PMD (upcall installs, FlowPut, negative flows) — the
	// notification the incremental revalidator registers expiry timers
	// from. In-place replacements do not re-fire it.
	flowHook func(*PMD, *dpcls.Entry)

	// assign is the rxq-to-PMD assignment layer (policies, auto-LB, XPS);
	// created lazily so the zero datapath keeps working.
	assign *assigner

	// offload is the hardware flow-offload engine; nil until hw-offload is
	// first enabled, so the default datapath carries no offload state.
	offload *offloadEngine

	// Stats.
	Processed      uint64
	EMCHits        uint64
	SMCHits        uint64
	MegaflowHits   uint64
	Upcalls        uint64
	Drops          uint64
	Recirculations uint64
	MeterDrops     uint64
	SegmentedPkts  uint64
	// MalformedDrops counts slow-path parse failures, split from policy
	// drops (the kernel flow extractor's EINVAL analog).
	MalformedDrops uint64
	// OffloadHits counts packets the NIC forwarded from its hardware flow
	// table, bypassing every software cache.
	OffloadHits uint64
}

// NewDatapath builds a datapath over a pipeline.
func NewDatapath(eng *sim.Engine, pl *ofproto.Pipeline, opts Options) *Datapath {
	if opts.BatchSize <= 0 {
		opts.BatchSize = costmodel.BatchSize
	}
	d := &Datapath{
		Eng:      eng,
		Pipeline: pl,
		Ct:       conntrack.NewTable(eng),
		Opts:     opts,
		ports:    make(map[uint32]Port),
	}
	d.Slowpath = upcall.New(eng, &d.Opts.Upcall, pl, sim.User, "upcall-handler")
	if opts.AutoLB {
		thr := opts.AutoLBThresholdPct
		if thr <= 0 {
			thr = -1 // keep the default
		}
		d.ConfigureAutoLB(true, opts.AutoLBInterval, thr)
	}
	if opts.Offload.Enable {
		d.ConfigureOffload(opts.Offload)
	}
	return d
}

// AddPort registers a port.
func (d *Datapath) AddPort(p Port) { d.ports[p.ID()] = p }

// Port returns a registered port or nil.
func (d *Datapath) Port(id uint32) Port { return d.ports[id] }

// RemovePort detaches a port.
func (d *Datapath) RemovePort(id uint32) { delete(d.ports, id) }

// Ports returns the number of attached ports.
func (d *Datapath) Ports() int { return len(d.ports) }

// ConfigureSMC enables or disables the signature match cache at runtime,
// allocating or releasing the per-PMD tables (smc-enable). entries > 0 also
// resizes the capacity; existing tables are rebuilt empty on resize, losing
// only re-learnable cache state.
func (d *Datapath) ConfigureSMC(on bool, entries int) {
	resize := entries > 0 && entries != d.Opts.SMCEntries
	d.Opts.SMC = on
	if entries > 0 {
		d.Opts.SMCEntries = entries
	}
	for _, m := range d.pmds {
		if resize {
			m.smc = nil
		}
		m.reconfigureSMC()
	}
}

// FlushFlows clears every PMD's caches (revalidation after rule changes)
// and, with hw-offload on, the NIC flow table in the same pass — a flushed
// hardware rule must never keep forwarding with the dropped actions.
func (d *Datapath) FlushFlows() {
	if d.offload != nil {
		d.offload.flushAll()
	}
	for _, m := range d.pmds {
		m.emc.Flush()
		if m.smc != nil {
			m.smc.Flush()
		}
		m.cls.Flush()
	}
}

// FlowCount reports megaflows across all PMDs (diagnostics).
func (d *Datapath) FlowCount() int {
	n := 0
	for _, m := range d.pmds {
		n += m.cls.Len()
	}
	return n
}

// PMDs returns the datapath's packet-processing threads (dpif flow dumps,
// diagnostics).
func (d *Datapath) PMDs() []*PMD { return d.pmds }

// EnableTrace arms packet-lifecycle tracing on every PMD, keeping the last
// n records per thread; n <= 0 disables it. Tracing is pure accounting and
// does not perturb virtual time.
func (d *Datapath) EnableTrace(n int) {
	d.traceDepth = n
	for _, m := range d.pmds {
		m.Perf.EnableTrace(n)
	}
}

// SetUpcall registers the slow-path handler consulted on classifier misses
// in place of the pipeline's translator (dpif upcall registration).
func (d *Datapath) SetUpcall(fn func(flow.Key) (ofproto.Megaflow, error)) {
	d.Slowpath.SetTranslator(fn)
}

// SetFlowHook registers (or, with nil, clears) the flow-installed
// notification, wiring it through every PMD classifier's OnInsert callback
// — existing threads and ones created later alike.
func (d *Datapath) SetFlowHook(fn func(*PMD, *dpcls.Entry)) {
	d.flowHook = fn
	for _, m := range d.pmds {
		if fn == nil {
			m.cls.OnInsert = nil
		} else {
			d.wireFlowHook(m)
		}
	}
}

// wireFlowHook binds one PMD's classifier insert callback to the datapath
// hook. The closure is created once per PMD at wiring time, so the install
// path itself allocates nothing.
func (d *Datapath) wireFlowHook(m *PMD) {
	m.cls.OnInsert = func(e *dpcls.Entry) { d.flowHook(m, e) }
}

// Execute runs one packet through the fast path as if it had arrived on
// p.InPort, on the first PMD (creating an unstarted one when the datapath
// has no threads yet) — the dpif execute analog.
func (d *Datapath) Execute(p *packet.Packet) {
	if len(d.pmds) == 0 {
		d.NewPMD(ModeNonPMD, nil)
	}
	d.processOne(d.pmds[0], p, 0)
}

const maxRecircDepth = 8

// processOne runs one packet through the fast path on PMD m. Costs are
// charged to m.CPU in the User category; the structure is the dpif-netdev
// hot loop: metadata, key extraction, EMC, megaflow classifier, upcall,
// action execution.
func (d *Datapath) processOne(m *PMD, p *packet.Packet, depth int) {
	d.processCounted(m, p, depth, true)
}

// processCounted is processOne with the admission accounting gated: packets
// reinjected after a queued upcall resolves (count=false) were already
// counted at admission, so Processed and the per-thread packet/trace
// accounting must not double-count them.
func (d *Datapath) processCounted(m *PMD, p *packet.Packet, depth int, count bool) {
	if depth > maxRecircDepth {
		d.Drops++
		p.Release()
		return
	}
	if count {
		d.Processed++
	}
	cpu := m.CPU

	if depth == 0 && count {
		m.Perf.Packets++
		if tr := m.Perf.Tracer(); tr != nil {
			start := cpu.FreeAt()
			if now := d.Eng.Now(); start < now {
				start = now
			}
			rec := perf.TraceRecord{InPort: p.InPort, Start: start}
			m.trace = &rec
			defer func() {
				rec.End = cpu.FreeAt()
				tr.Add(rec)
				m.trace = nil
			}()
		}
	}

	// Hardware flow-table match: the NIC forwards offloaded flows itself,
	// so the packet bypasses metadata, checksum, parse, and every software
	// cache, paying only the near-zero host-side bookkeeping. Recirculated
	// packets (depth > 0) are already on the host and stay there.
	if depth == 0 && d.offload != nil && d.offload.on {
		if e, ok := d.offload.hwLookup(p); ok {
			m.charge(perf.StageOffload, costmodel.OffloadHit)
			d.OffloadHits++
			m.Perf.OffloadHits++
			m.traceResolved(perf.ResultOffload)
			actions := ofproto.ActionsOf(e.Actions)
			d.hwForward(m, p, actions)
			return
		}
	}

	// dp_packet metadata (O4).
	m.charge(perf.StageRx, costmodel.PacketMetadataInit)
	if !d.Opts.MetadataPrealloc {
		m.charge(perf.StageRx, costmodel.PacketMetadataMmap)
	}

	// Receive-side checksum validation (O5): packets whose checksum no
	// hardware vouched for (AF_XDP physical receive) are validated in
	// software, unless the experiment assumes the future offload.
	if depth == 0 && p.Offloads&(packet.CsumVerified|packet.CsumPartial) == 0 {
		if !d.Opts.AssumeCsumOffload {
			m.charge(perf.StageRx, costmodel.ChecksumCost(len(p.Data)))
		}
		p.Offloads |= packet.CsumVerified
	}

	// Flow key extraction (the real parser, charged at the calibrated
	// rate).
	key := flow.Extract(p)
	m.charge(perf.StageRx, costmodel.ParseFlowKey)

	e := d.lookupHierarchy(m, key)
	if e == nil {
		// Genuine parse failures are split from policy drops before
		// any slow-path resource is consumed (the kernel flow
		// extractor returns EINVAL, not an upcall).
		if flow.Malformed(p) {
			d.MalformedDrops++
			p.Release()
			return
		}
		// Misses are counted even when the bounded upcall queue refuses
		// the packet, matching the kernel's lookup accounting.
		d.Upcalls++
		m.traceResolved(perf.ResultUpcall)
		if e = m.upcalls.Miss(cpu, key, p); e == nil {
			return
		}
		m.cacheInsert(key, e)
	}

	actions := ofproto.ActionsOf(e.Actions)
	if len(actions) == 0 {
		d.Drops++
		p.Release()
		return
	}
	// Elephant install: a software hit on a flow the offload engine marked
	// means this exact key is not yet in hardware (a resident key would
	// have short-circuited above) — push it down now. One byte compare on
	// the default path.
	if e.OffloadMark != 0 && depth == 0 && d.offload != nil {
		d.offload.installFor(key, e)
	}
	d.execute(m, p, actions, depth)
}

// lookupHierarchy resolves key through the cache hierarchy — EMC, SMC,
// megaflow classifier — charging each level probed and counting the hit at
// the level that resolved it, exactly as dfc_processing walks the caches.
// A dpcls hit back-fills the faster caches; nil means every level missed
// and the caller owns the slow path.
func (d *Datapath) lookupHierarchy(m *PMD, key flow.Key) *dpcls.Entry {
	if d.Opts.EMC {
		if e, ok := m.emc.Lookup(key); ok {
			m.charge(perf.StageEMC, costmodel.EMCHit)
			if m.emc.Len() > d.Opts.ColdFlowThreshold {
				m.charge(perf.StageEMC, costmodel.ColdFlowCacheMiss)
			}
			// An EMC hit is activity on the underlying megaflow: count it
			// there too (as the SMC path does), or the revalidator sees
			// EMC-resident flows as idle and evicts live flows.
			e.Hits++
			d.EMCHits++
			m.Perf.EMCHits++
			m.lastLevel = perf.ResultEMC
			m.traceResolved(perf.ResultEMC)
			return e
		}
		m.charge(perf.StageEMC, costmodel.EMCMissProbe)
	}
	if m.smc != nil {
		if e, ok := m.smc.Lookup(key); ok {
			m.charge(perf.StageSMC, costmodel.SMCHit)
			if m.smc.Len() > d.Opts.ColdFlowThreshold {
				m.charge(perf.StageSMC, costmodel.ColdFlowCacheMiss)
			}
			d.SMCHits++
			m.Perf.SMCHits++
			m.lastLevel = perf.ResultSMC
			m.traceResolved(perf.ResultSMC)
			// An SMC hit refreshes the EMC probabilistically, as
			// dfc_processing does on its way out.
			m.emcInsert(key, e)
			return e
		}
		m.charge(perf.StageSMC, costmodel.SMCMissProbe)
	}
	e, probes := m.cls.Lookup(key)
	m.charge(perf.StageDpcls, sim.Time(probes)*costmodel.DpclsLookupPerSubtable)
	if e == nil {
		m.lastLevel = perf.ResultNone
		return nil
	}
	d.MegaflowHits++
	m.Perf.MegaflowHits++
	m.lastLevel = perf.ResultMegaflow
	m.traceResolved(perf.ResultMegaflow)
	m.cacheInsert(key, e)
	return e
}

// traceResolved notes the caching level that resolved the packet currently
// being traced; only the first level sticks (recirculations re-resolve).
func (m *PMD) traceResolved(r perf.Result) {
	if m.trace != nil && m.trace.Result == perf.ResultNone {
		m.trace.Result = r
	}
}

// execute runs a compiled datapath action list. It owns p: every path
// transmits, recirculates or releases it exactly once.
func (d *Datapath) execute(m *PMD, p *packet.Packet, actions []ofproto.DPAction, depth int) {
	for i, a := range actions {
		switch a.Type {
		case ofproto.DPOutput:
			out := d.ports[a.Port]
			if out == nil {
				d.Drops++
				p.Release()
				return
			}
			m.charge(perf.StageActions, costmodel.ExecActionOutput)
			if m.trace != nil {
				m.trace.OutPort = a.Port
			}
			if i == len(actions)-1 {
				d.transmit(m, out, p)
				return
			}
			// More actions follow: the port takes a copy, as OVS
			// clones a batch it must not steal.
			d.transmit(m, out, p.Clone())

		case ofproto.DPCT:
			m.charge(perf.StageActions, costmodel.ConntrackLookup)
			if a.Commit {
				m.charge(perf.StageActions, costmodel.ConntrackCommit-costmodel.ConntrackLookup)
			}
			ctRemovals := d.Ct.PressureRemovals()
			d.Ct.Process(p, a.Zone, a.Commit, a.NAT)
			if n := d.Ct.PressureRemovals() - ctRemovals; n > 0 {
				m.charge(perf.StageActions, costmodel.ConntrackEvict*sim.Time(n))
				m.Perf.CtEvictions += n
			}
			m.charge(perf.StageActions, costmodel.RecirculationOverhead)
			p.RecircID = a.RecircID
			d.Recirculations++
			if m.trace != nil {
				m.trace.Recircs++
			}
			d.processOne(m, p, depth+1)
			return

		case ofproto.DPTunnelPush:
			m.charge(perf.StageActions, costmodel.TunnelEncap)
			outer, err := d.Encapper.Encap(p, a.Tunnel)
			// The encapsulation copied the frame; the original is done.
			p.Release()
			if err != nil {
				d.Drops++
				return
			}
			// The outer UDP checksum was computed in software by
			// the encapsulation; with estimated offload the cost
			// vanishes (O5's methodology).
			if !d.Opts.AssumeCsumOffload {
				m.charge(perf.StageActions, costmodel.ChecksumCost(len(outer.Data)))
			}
			p = outer

		case ofproto.DPTunnelPop:
			m.charge(perf.StageActions, costmodel.TunnelDecap)
			// Decap in place: the inner frame keeps the outer
			// packet's buffer (and frame).
			wasTunnel, err := tunnel.Decap(p)
			if err != nil || !wasTunnel {
				d.Drops++
				p.Release()
				return
			}
			p.InPort = a.Port
			d.Recirculations++
			if m.trace != nil {
				m.trace.Recircs++
			}
			d.processOne(m, p, depth+1)
			return

		case ofproto.DPPushVLAN:
			m.charge(perf.StageActions, costmodel.ExecActionSimple)
			p.Data = hdr.PushVLAN(p.Data, a.VLAN, a.VLANPrio)
		case ofproto.DPPopVLAN:
			m.charge(perf.StageActions, costmodel.ExecActionSimple)
			p.Data = hdr.PopVLAN(p.Data)
		case ofproto.DPSetEthSrc:
			m.charge(perf.StageActions, costmodel.ExecActionSimple)
			if len(p.Data) >= 12 {
				copy(p.Data[6:12], a.MAC[:])
			}
		case ofproto.DPSetEthDst:
			m.charge(perf.StageActions, costmodel.ExecActionSimple)
			if len(p.Data) >= 6 {
				copy(p.Data[0:6], a.MAC[:])
			}
		case ofproto.DPDecTTL:
			m.charge(perf.StageActions, costmodel.ExecActionSimple)
			hdr.DecTTL(p.Data)
		case ofproto.DPMeter:
			if !d.Pipeline.MeterAllow(a.MeterID, len(p.Data), d.Eng.Now()) {
				d.MeterDrops++
				d.Drops++
				p.Release()
				return
			}
		}
	}
	// The list ended without an output taking the packet.
	p.Release()
}

// transmit handles offload fix-ups before handing the packet to the port:
// software checksumming when the egress lacks the offload (O5) and
// software TSO segmentation when the egress lacks TSO (Figure 8's
// pre-TSO-support bars).
func (d *Datapath) transmit(m *PMD, out Port, p *packet.Packet) {
	caps := PortCaps(out)
	cpu := m.CPU

	if p.Offloads&packet.CsumPartial != 0 && !caps.TxCsum {
		if !d.Opts.AssumeCsumOffload {
			m.charge(perf.StageActions, costmodel.ChecksumCost(len(p.Data)))
		}
		p.Offloads &^= packet.CsumPartial
		p.Offloads |= packet.CsumVerified
	}

	txq := d.TxqFor(m, out)
	if p.SegSize > 0 && len(p.Data) > p.SegSize+64 && !caps.TSO && !d.Opts.AssumeTSO {
		// Software segmentation: split into MSS frames, each paying a
		// copy, then transmit each.
		segs := softwareSegment(p)
		if segs[0] != p {
			// The segments are copies; the original is done.
			p.Release()
		}
		d.SegmentedPkts++
		for _, s := range segs {
			m.charge(perf.StageActions, costmodel.CopyCost(len(s.Data)))
			if s.Offloads&packet.CsumPartial != 0 && !d.Opts.AssumeCsumOffload {
				m.charge(perf.StageActions, costmodel.ChecksumCost(len(s.Data)))
				s.Offloads &^= packet.CsumPartial
			}
			d.chargeTxLock(m, out)
			txBefore := cpu.BusyTotal()
			out.Tx(cpu, txq, s)
			m.Perf.Add(perf.StageActions, cpu.BusyTotal()-txBefore)
		}
		m.touch(out)
		return
	}
	d.chargeTxLock(m, out)
	txBefore := cpu.BusyTotal()
	out.Tx(cpu, txq, p)
	m.Perf.Add(perf.StageActions, cpu.BusyTotal()-txBefore)
	m.touch(out)
}

// softwareSegment splits an oversized TCP packet at its SegSize.
func softwareSegment(p *packet.Packet) []*packet.Packet {
	hdrLen := p.L4Offset
	if hdrLen <= 0 || hdrLen > len(p.Data) {
		hdrLen = 54
	} else if hdrLen+hdr.TCPMinSize <= len(p.Data) {
		hdrLen += int(p.Data[hdrLen+12]>>4) * 4
	}
	if hdrLen > len(p.Data) {
		hdrLen = len(p.Data)
	}
	payload := p.Data[hdrLen:]
	var out []*packet.Packet
	for off := 0; off < len(payload); off += p.SegSize {
		end := off + p.SegSize
		if end > len(payload) {
			end = len(payload)
		}
		data := make([]byte, hdrLen+end-off)
		copy(data, p.Data[:hdrLen])
		copy(data[hdrLen:], payload[off:end])
		s := packet.New(data)
		s.Metadata = p.Metadata
		s.SegSize = 0
		out = append(out, s)
	}
	if len(out) == 0 {
		return []*packet.Packet{p}
	}
	return out
}
