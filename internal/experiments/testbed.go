// Package experiments wires the simulated substrates into the paper's
// testbeds and reproduces every table and figure of the evaluation
// (Section 5). Each experiment builds fresh testbeds per trial, runs a
// warmup, measures a steady-state window, and reports paper-vs-measured.
package experiments

import (
	"fmt"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/containersim"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/measure"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/vmsim"
	"ovsxdp/internal/xdp"
)

// DPKind selects the datapath under test.
type DPKind int

// Datapath kinds.
const (
	KindKernel DPKind = iota
	KindAFXDP
	KindDPDK
	KindEBPF // kernel datapath re-implemented in sandboxed eBPF (Fig 2)
)

// String names the kind.
func (k DPKind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindAFXDP:
		return "afxdp"
	case KindDPDK:
		return "dpdk"
	default:
		return "ebpf"
	}
}

// DpifType maps the kind to its dpif provider registry name.
func (k DPKind) DpifType() string {
	switch k {
	case KindKernel:
		return "netlink"
	case KindEBPF:
		return "ebpf"
	default:
		return "netdev"
	}
}

// mustOpen opens a registered dpif provider or panics — testbeds are
// constructed from compile-time kinds, so a miss is a programming error.
func mustOpen(name string, cfg dpif.Config) dpif.Dpif {
	d, err := dpif.Open(name, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// VDevKind selects the VM device for PVP scenarios.
type VDevKind int

// Virtual device kinds.
const (
	VDevTap VDevKind = iota
	VDevVhost
)

// String names the kind.
func (k VDevKind) String() string {
	if k == VDevTap {
		return "tap"
	}
	return "vhostuser"
}

// BedConfig parameterizes a loopback testbed.
type BedConfig struct {
	Kind      DPKind
	Flows     int
	FrameSize int
	Queues    int // NIC receive queues = PMD threads (Fig 12)
	LinkRate  int64
	Mode      core.Mode // poll / interrupt / non-pmd for AF_XDP-style ports
	Lock      afxdp.LockMode
	ZeroCopy  bool // zero-copy AF_XDP (driver support dependent)
	Opts      core.Options
	// VDev, for PVP: how the VM attaches.
	VDev VDevKind
	// KernelQueues: RSS width for the kernel datapath (hyperthreads).
	KernelQueues int
	Seed         uint64
	// Pipeline overrides the default port-forwarding pipeline (nil keeps
	// it). The cache-hierarchy sweep uses this to install a multi-subtable
	// rule set so the megaflow classifier has real tuple-space work to do.
	Pipeline *ofproto.Pipeline
	// PMDs is the number of poll threads for userspace datapaths; zero
	// keeps the legacy one-thread-per-NIC-queue wiring. Receive queues
	// are distributed over the threads by the assignment layer, so PMDs
	// may be smaller than Queues (the corescale sweep's whole point).
	PMDs int
	// Other carries ovs-vsctl-style other_config keys applied through
	// dpif.SetConfig at open — the one way to set a datapath tunable.
	Other map[string]string
	// RSSWeights, when set, programs NIC A's RSS indirection table with
	// one weight per queue (nicsim.WeightedIndirection), skewing traffic
	// deterministically across receive queues. nil keeps the identity
	// hash spread.
	RSSWeights []int
}

// DefaultBed returns the Section 5.2 defaults.
func DefaultBed(kind DPKind, flows int) BedConfig {
	return BedConfig{
		Kind: kind, Flows: flows, FrameSize: 64, Queues: 1,
		LinkRate: costmodel.LinkRate25G,
		Mode:     core.ModePoll, Lock: afxdp.LockSpinBatched,
		Opts: core.DefaultOptions(), KernelQueues: 12, Seed: 1,
	}
}

// Bed is a built loopback testbed: generator -> NIC A -> datapath ->
// NIC B -> delivered counter.
type Bed struct {
	Eng       *sim.Engine
	Gen       *trafficgen.UDPGen
	NICA      *nicsim.NIC
	NICB      *nicsim.NIC
	Delivered uint64

	// DP is the datapath under test, reached through the dpif provider
	// seam — the bed never needs to know which implementation it drives.
	DP dpif.Dpif

	// Actors holds the kernel datapath's NAPI softirq actors so scenarios
	// (restart/recovery) can stop and resume them. Empty for userspace
	// datapaths, whose PMD threads are reachable via DP.
	Actors []*kernelsim.NAPIActor

	dropFns []func() uint64
}

// Drops sums packet losses at every bounded queue in the bed.
func (b *Bed) Drops() uint64 {
	total := b.NICA.RxDropsTotal() + b.NICB.RxDropsTotal()
	for _, fn := range b.dropFns {
		total += fn()
	}
	return total
}

// forwardPipeline forwards port 1 -> port 2 (and 2 -> 1 for the reverse
// direction in PVP/PCP).
func forwardPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, m),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 2}, m),
		Actions: []ofproto.Action{ofproto.Output(1)}})
	return pl
}

// NewP2PBed builds the Figure 9(a) physical-to-physical loopback.
func NewP2PBed(cfg BedConfig) *Bed {
	eng := sim.NewEngine(cfg.Seed)
	bed := &Bed{Eng: eng}
	pipeline := cfg.Pipeline
	if pipeline == nil {
		pipeline = forwardPipeline()
	}

	queues := cfg.Queues
	if cfg.Kind == KindKernel || cfg.Kind == KindEBPF {
		queues = cfg.KernelQueues
	}
	offloads := nicsim.Offloads{}
	if cfg.Kind == KindDPDK || cfg.Kind == KindKernel || cfg.Kind == KindEBPF {
		offloads = nicsim.Offloads{RxCsum: true, TxCsum: true, TSO: true, RSSHashDeliver: true}
	}
	bed.NICA = nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: queues,
		LinkRate: cfg.LinkRate, Offloads: offloads})
	bed.NICB = nicsim.New(eng, nicsim.Config{Name: "p1", Ifindex: 2, Queues: queues,
		LinkRate: cfg.LinkRate, Offloads: offloads})
	bed.NICB.ConnectWire(func(p *packet.Packet) { bed.Delivered++; p.Release() })
	if len(cfg.RSSWeights) > 0 {
		if err := bed.NICA.SetRSSIndirection(nicsim.WeightedIndirection(cfg.RSSWeights)); err != nil {
			panic(err)
		}
	}

	switch cfg.Kind {
	case KindKernel, KindEBPF:
		nl := mustOpen(cfg.Kind.DpifType(),
			dpif.Config{Eng: eng, Pipeline: pipeline, Other: cfg.Other}).(*dpif.Netlink)
		bed.DP = nl
		nl.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
			Deliver: func(p *packet.Packet) { bed.NICB.Transmit(p) }})
		active := 0
		nl.SetActiveCPUs(func() int {
			if active == 0 {
				n := 0
				for q := 0; q < queues; q++ {
					if bed.NICA.Queue(q).RxPackets > 0 {
						n++
					}
				}
				if n == 0 {
					n = 1
				}
				if cfg.Flows > 1 {
					active = n // stabilize once spread is known
				}
				return n
			}
			return active
		})
		for q := 0; q < queues; q++ {
			cpu := eng.NewCPU(fmt.Sprintf("ksoftirqd/%d", q))
			actor := &kernelsim.NAPIActor{Eng: eng, CPU: cpu,
				Src:     kernelsim.NICQueueSource{Q: bed.NICA.Queue(q)},
				Handler: kdpHandler(nl, 1),
			}
			bed.Actors = append(bed.Actors, actor)
			actor.Start()
		}
	case KindAFXDP:
		if _, err := core.AttachDefaultProgram(bed.NICA); err != nil {
			panic(err)
		}
		if _, err := core.AttachDefaultProgram(bed.NICB); err != nil {
			panic(err)
		}
		nd := mustOpen("netdev",
			dpif.Config{Eng: eng, Pipeline: pipeline, Options: cfg.Opts, Other: cfg.Other}).(*dpif.Netdev)
		bed.DP = nd
		portA := core.NewAFXDPPort(core.AFXDPPortConfig{ID: 1, NIC: bed.NICA, Eng: eng,
			LockMode: cfg.Lock, ZeroCopy: cfg.ZeroCopy})
		portB := core.NewAFXDPPort(core.AFXDPPortConfig{ID: 2, NIC: bed.NICB, Eng: eng,
			LockMode: cfg.Lock, ZeroCopy: cfg.ZeroCopy})
		nd.PortAdd(portA)
		nd.PortAdd(portB)
		bed.dropFns = append(bed.dropFns,
			func() uint64 { return xskDrops(portA, queues) },
			func() uint64 { return portA.TxDrops + portB.TxDrops })
		spawnPMDs(nd, cfg.Mode, cfg.PMDs, queues, portA)
	case KindDPDK:
		nd := mustOpen("netdev",
			dpif.Config{Eng: eng, Pipeline: pipeline, Options: cfg.Opts, Other: cfg.Other}).(*dpif.Netdev)
		bed.DP = nd
		portA := core.NewDPDKPort(1, bed.NICA)
		portB := core.NewDPDKPort(2, bed.NICB)
		nd.PortAdd(portA)
		nd.PortAdd(portB)
		spawnPMDs(nd, core.ModePoll, cfg.PMDs, queues, portA)
	}

	bed.Gen = trafficgen.NewUDPGen(eng, cfg.Flows, cfg.FrameSize,
		func(p *packet.Packet) { bed.NICA.Receive(p) })
	return bed
}

// spawnPMDs creates the poll threads for a userspace bed and routes every
// receive queue through the datapath's assignment layer. pmds <= 0 keeps the
// legacy one-thread-per-NIC-queue shape; under the default round-robin
// policy that places queue i on thread i, reproducing the historical hand
// wiring exactly.
func spawnPMDs(nd *dpif.Netdev, mode core.Mode, pmds, queues int, rxPorts ...core.Port) {
	if pmds <= 0 {
		pmds = queues
	}
	threads := make([]*core.PMD, pmds)
	for i := range threads {
		threads[i] = nd.NewPMD(mode)
	}
	for _, p := range rxPorts {
		if err := nd.Datapath().DistributeRxqs(p); err != nil {
			panic(err)
		}
	}
	for _, m := range threads {
		m.Start()
	}
}

func xskDrops(p *core.AFXDPPort, queues int) uint64 {
	var d uint64
	for q := 0; q < queues; q++ {
		x := p.XSK(q)
		d += x.RxDropFill + x.RxDropRing
	}
	return d
}

// NewPVPBed builds the Figure 9(b) physical-VM-physical loopback: packets
// enter NIC A, go to a reflecting VM, and come back out NIC B.
func NewPVPBed(cfg BedConfig) *Bed {
	eng := sim.NewEngine(cfg.Seed)
	bed := &Bed{Eng: eng}

	queues := cfg.Queues
	if cfg.Kind == KindKernel {
		queues = cfg.KernelQueues
	}
	offloads := nicsim.Offloads{}
	if cfg.Kind == KindDPDK || cfg.Kind == KindKernel {
		offloads = nicsim.Offloads{RxCsum: true, TxCsum: true, TSO: true, RSSHashDeliver: true}
	}
	bed.NICA = nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: queues,
		LinkRate: cfg.LinkRate, Offloads: offloads})
	bed.NICB = nicsim.New(eng, nicsim.Config{Name: "p1", Ifindex: 2, Queues: queues,
		LinkRate: cfg.LinkRate, Offloads: offloads})
	bed.NICB.ConnectWire(func(p *packet.Packet) { bed.Delivered++; p.Release() })

	// Pipeline: NIC A (port 1) -> VM (port 3); VM (port 3) -> NIC B
	// (port 2).
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, m),
		Actions: []ofproto.Action{ofproto.Output(3)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 3}, m),
		Actions: []ofproto.Action{ofproto.Output(2)}})

	// The VM.
	var backend vmsim.Backend
	var vmPort core.Port
	switch cfg.VDev {
	case VDevVhost:
		dev := vdev.NewVhostUser("vhost0")
		backend = &vmsim.VhostUserBackend{Dev: dev}
		vmPort = core.NewVhostPort(3, dev)
		bed.dropFns = append(bed.dropFns,
			func() uint64 { return dev.ToGuest.Dropped + dev.FromGuest.Dropped })
	default:
		tap := vdev.NewTap("tap0")
		backend = vmsim.NewTapBackendMQ(eng, tap,
			eng.NewCPU("qemu-rx"), eng.NewCPU("qemu-tx"))
		vmPort = core.NewTapPort(3, tap)
		bed.dropFns = append(bed.dropFns,
			func() uint64 { return tap.ToKernel.Dropped + tap.FromKernel.Dropped })
	}
	// The PVP loopback guest runs a poll-mode reflector (testpmd-style),
	// as the paper's VM does.
	vmsim.New(eng, vmsim.Config{Name: "vm0", Backend: backend, FastReflector: true})

	switch cfg.Kind {
	case KindKernel:
		nl := mustOpen("netlink", dpif.Config{Eng: eng, Pipeline: pl, Other: cfg.Other}).(*dpif.Netlink)
		bed.DP = nl
		nl.SetActiveCPUs(kernelActiveFn(bed, queues, cfg.Flows))
		// VM attaches via tap: in-kernel handoff (no syscall).
		tapDev, _ := backend.(*vmsim.TapBackend)
		nl.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
			Deliver: func(p *packet.Packet) { bed.NICB.Transmit(p) }})
		nl.PortAdd(dpif.TxPort{PortID: 3, PortName: "tap0",
			Deliver: func(p *packet.Packet) {
				if tapDev != nil {
					tapDev.Tap.ToKernel.Push(p)
				}
			}})
		for q := 0; q < queues; q++ {
			cpu := eng.NewCPU(fmt.Sprintf("ksoftirqd/%d", q))
			(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
				Src:     kernelsim.NICQueueSource{Q: bed.NICA.Queue(q)},
				Handler: kdpHandler(nl, 1)}).Start()
		}
		// Traffic leaving the VM re-enters the kernel datapath.
		if tapDev != nil {
			cpu := eng.NewCPU("ksoftirqd/tap")
			(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
				Src: kernelsim.VQueueSource{Q: tapDev.Tap.FromKernel},
				Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
					for _, p := range pkts {
						p.ResetMetadata()
						p.InPort = 3
						nl.Process(cpu, p)
					}
				}}).Start()
		}
	case KindAFXDP, KindDPDK:
		nd := mustOpen("netdev",
			dpif.Config{Eng: eng, Pipeline: pl, Options: cfg.Opts, Other: cfg.Other}).(*dpif.Netdev)
		bed.DP = nd
		var portA, portB core.Port
		if cfg.Kind == KindAFXDP {
			if _, err := core.AttachDefaultProgram(bed.NICA); err != nil {
				panic(err)
			}
			if _, err := core.AttachDefaultProgram(bed.NICB); err != nil {
				panic(err)
			}
			pA := core.NewAFXDPPort(core.AFXDPPortConfig{ID: 1, NIC: bed.NICA, Eng: eng, LockMode: cfg.Lock})
			portA = pA
			portB = core.NewAFXDPPort(core.AFXDPPortConfig{ID: 2, NIC: bed.NICB, Eng: eng, LockMode: cfg.Lock})
			bed.dropFns = append(bed.dropFns, func() uint64 { return xskDrops(pA, queues) })
		} else {
			portA = core.NewDPDKPort(1, bed.NICA)
			portB = core.NewDPDKPort(2, bed.NICB)
		}
		nd.PortAdd(portA)
		nd.PortAdd(portB)
		nd.PortAdd(vmPort)
		// Round-robin distribution lands the VM port's single queue on the
		// first thread, matching the historical wiring.
		spawnPMDs(nd, cfg.Mode, cfg.PMDs, queues, portA, vmPort)
	}

	bed.Gen = trafficgen.NewUDPGen(eng, cfg.Flows, cfg.FrameSize,
		func(p *packet.Packet) { bed.NICA.Receive(p) })
	return bed
}

func kernelActiveFn(bed *Bed, queues, flows int) func() int {
	active := 0
	return func() int {
		if active == 0 {
			n := 0
			for q := 0; q < queues; q++ {
				if bed.NICA.Queue(q).RxPackets > 0 {
					n++
				}
			}
			if n == 0 {
				n = 1
			}
			if flows > 1 {
				active = n
			}
			return n
		}
		return active
	}
}

// PCPMode selects the container attachment for the PCP bed.
type PCPMode int

// Container attachment modes (Figure 9c's three bars).
const (
	PCPKernel     PCPMode = iota // in-kernel datapath + veth
	PCPAFXDPRedir                // XDP program redirects NIC<->veth (path C)
	PCPDPDK                      // DPDK + AF_PACKET container crossing
)

// String names the mode.
func (m PCPMode) String() string {
	switch m {
	case PCPKernel:
		return "kernel"
	case PCPAFXDPRedir:
		return "afxdp-xdp-redirect"
	default:
		return "dpdk"
	}
}

// NewPCPBed builds the Figure 9(c) physical-container-physical loopback.
func NewPCPBed(mode PCPMode, flows int, seed uint64) *Bed {
	eng := sim.NewEngine(seed)
	bed := &Bed{Eng: eng}
	bed.NICA = nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: 1,
		LinkRate: costmodel.LinkRate25G})
	bed.NICB = nicsim.New(eng, nicsim.Config{Name: "p1", Ifindex: 2, Queues: 1,
		LinkRate: costmodel.LinkRate25G})
	bed.NICB.ConnectWire(func(p *packet.Packet) { bed.Delivered++; p.Release() })

	veth := vdev.NewVethPair("veth0")
	ct := containersim.New(eng, containersim.Config{Name: "c0", Veth: veth, FastPath: true})
	bed.dropFns = append(bed.dropFns,
		func() uint64 { return veth.AtoB.Dropped + veth.BtoA.Dropped })

	switch mode {
	case PCPKernel:
		nl := mustOpen("netlink",
			dpif.Config{Eng: eng, Pipeline: forwardPipelinePCP()}).(*dpif.Netlink)
		bed.DP = nl
		nl.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
			Deliver: func(p *packet.Packet) { bed.NICB.Transmit(p) }})
		nl.PortAdd(dpif.TxPort{PortID: 3, PortName: "veth0",
			Deliver: func(p *packet.Packet) { veth.SendA(p) }})
		cpu := eng.NewCPU("ksoftirqd/0")
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
			Src:     kernelsim.NICQueueSource{Q: bed.NICA.Queue(0)},
			Handler: kdpHandler(nl, 1)}).Start()
		// Container output re-enters the datapath.
		cpu2 := eng.NewCPU("ksoftirqd/veth")
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu2,
			Src: kernelsim.VQueueSource{Q: veth.BtoA},
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					p.ResetMetadata()
					p.InPort = 3
					nl.Process(cpu, p)
				}
			}}).Start()

	case PCPAFXDPRedir:
		// Figure 5 path C: the XDP program on NIC A redirects container
		// traffic straight to the veth; the container's return traffic
		// is picked up by a veth-side XDP program that transmits NIC B.
		l2 := ebpf.NewHashMap(8, 4, 128)
		dev := ebpf.NewDevMap(8)
		xskMap := ebpf.NewXskMap(8)
		if err := dev.SetTarget(0, 3); err != nil {
			panic(err)
		}
		// The generator's destination MAC maps to devmap slot 0.
		genDst := [6]byte{0x02, 0xbb, 0, 0, 0, 1}
		if err := l2.Update(xdp.MACKey(genDst), []byte{0, 0, 0, 0}); err != nil {
			panic(err)
		}
		prog := xdp.NewRedirectToVeth(l2, dev, xskMap)
		if err := prog.Load(); err != nil {
			panic(err)
		}
		if err := bed.NICA.Hook.Attach(prog); err != nil {
			panic(err)
		}
		softirq := eng.NewCPU("softirq/0")
		(&kernelsim.NAPIActor{Eng: eng, CPU: softirq,
			Src: kernelsim.NICQueueSource{Q: bed.NICA.Queue(0)},
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead)
					res, cost, err := bed.NICA.Hook.Run(0, p.Data, 1)
					cpu.Consume(sim.Softirq, cost)
					if err != nil {
						continue
					}
					if res.Action == ebpf.XDPRedirect {
						cpu.Consume(sim.Softirq, costmodel.XDPRedirectVeth)
						veth.SendA(p)
					}
				}
			}}).Start()
		// veth return side: in-kernel XDP redirect to NIC B.
		softirq2 := eng.NewCPU("softirq/veth")
		(&kernelsim.NAPIActor{Eng: eng, CPU: softirq2,
			Src: kernelsim.VQueueSource{Q: veth.BtoA},
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead+costmodel.XDPRedirectVeth)
					bed.NICB.Transmit(p)
				}
			}}).Start()

	case PCPDPDK:
		nd := mustOpen("netdev", dpif.Config{Eng: eng, Pipeline: forwardPipelinePCP(),
			Options: core.DefaultOptions()}).(*dpif.Netdev)
		bed.DP = nd
		portA := core.NewDPDKPort(1, bed.NICA)
		portB := core.NewDPDKPort(2, bed.NICB)
		nd.PortAdd(portA)
		nd.PortAdd(portB)
		// Container access via AF_PACKET: extra user/kernel crossing
		// each way (Section 5.3's explanation of DPDK's latency).
		dpdkCt := &dpdkContainerPort{id: 3, veth: veth, eng: eng}
		nd.PortAdd(dpdkCt)
		spawnPMDs(nd, core.ModePoll, 1, 1, portA, dpdkCt)
	}

	_ = ct
	bed.Gen = trafficgen.NewUDPGen(eng, flows, 64,
		func(p *packet.Packet) { bed.NICA.Receive(p) })
	return bed
}

func forwardPipelinePCP() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, m),
		Actions: []ofproto.Action{ofproto.Output(3)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 3}, m),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

// dpdkContainerPort reaches a container through AF_PACKET injection: every
// packet pays a user/kernel crossing plus copies in each direction.
type dpdkContainerPort struct {
	id   uint32
	veth *vdev.VethPair
	eng  *sim.Engine
}

func (p *dpdkContainerPort) ID() uint32       { return p.id }
func (p *dpdkContainerPort) Name() string     { return "dpdk-afpacket" }
func (p *dpdkContainerPort) NumRxQueues() int { return 1 }
func (p *dpdkContainerPort) NumTxQueues() int { return 1 }

func (p *dpdkContainerPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.veth.BtoA.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		// Under load the AF_PACKET ring amortizes the crossing across a
		// batch; latency tests see the full per-wakeup cost instead.
		cpu.Consume(sim.System, costmodel.DPDKContainerCrossing/16+costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

func (p *dpdkContainerPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.System, costmodel.DPDKContainerCrossing/16+costmodel.CopyCost(len(pkt.Data)))
	p.veth.SendA(pkt.Detach())
}

func (p *dpdkContainerPort) Flush(*sim.CPU, int) {}

func (p *dpdkContainerPort) Arm(_ int, fn func()) {
	p.veth.BtoA.SetWakeup(fn)
	p.veth.BtoA.ArmWakeup()
}

// kdpHandler feeds packets to the kernel datapath with the right input
// port set.
func kdpHandler(d *dpif.Netlink, inPort uint32) func(*sim.CPU, []*packet.Packet) {
	return func(cpu *sim.CPU, pkts []*packet.Packet) {
		for _, p := range pkts {
			p.InPort = inPort
			d.Process(cpu, p)
		}
	}
}

// RunProbe drives a bed at ratePPS with a warmup then measures a window,
// returning the delivery/drop/CPU numbers.
func RunProbe(bed *Bed, ratePPS float64, warmup, window sim.Time) measure.ProbeResult {
	bed.Gen.Run(ratePPS, warmup+window)

	bed.Eng.RunUntil(warmup)
	for _, c := range bed.Eng.CPUs() {
		c.ResetAccounting()
	}
	sentBefore := bed.Gen.Sent
	deliveredBefore := bed.Delivered
	dropsBefore := bed.Drops()

	bed.Eng.RunUntil(warmup + window)
	// Allow in-flight packets to drain briefly (not counted as offered).
	bed.Eng.RunUntil(warmup + window + 200*sim.Microsecond)

	offered := bed.Gen.Sent - sentBefore
	delivered := bed.Delivered - deliveredBefore
	drops := bed.Drops() - dropsBefore
	usage := bed.Eng.CPUReport(window + 200*sim.Microsecond)
	return measure.ProbeResult{Offered: offered, Delivered: delivered, Dropped: drops, Usage: usage}
}
