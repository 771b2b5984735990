package experiments

import (
	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/containersim"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/vmsim"
)

// Figure 8: single-flow bulk TCP throughput in three production scenarios,
// with the NSX-style pipeline (classification, conntrack with
// recirculation, L2, Geneve for the cross-host case) and the offload
// toggles the paper walks through.

func init() {
	register(Experiment{ID: "fig8a", Title: "VM-to-VM TCP across hosts over Geneve (Figure 8a)", Run: runFig8a})
	register(Experiment{ID: "fig8b", Title: "VM-to-VM TCP within a host (Figure 8b)", Run: runFig8b})
	register(Experiment{ID: "fig8c", Title: "Container-to-container TCP within a host (Figure 8c)", Run: runFig8c})
}

// Port numbering inside each host's datapath.
const (
	f8Uplink uint32 = 1
	f8VM     uint32 = 3
	f8VM2    uint32 = 4
	f8TnlPop uint32 = 100
)

var (
	f8SenderMAC   = hdr.MAC{0x02, 0x10, 0, 0, 0, 0x01}
	f8ReceiverMAC = hdr.MAC{0x02, 0x20, 0, 0, 0, 0x01}
	f8SenderIP    = hdr.MakeIP4(10, 10, 0, 1)
	f8ReceiverIP  = hdr.MakeIP4(10, 10, 0, 2)
	f8VTEP1       = hdr.MakeIP4(172, 16, 0, 1)
	f8VTEP2       = hdr.MakeIP4(172, 16, 0, 2)
)

// nsxStylePipeline builds the three-pass pipeline for one host: classify,
// conntrack, L2 with local VIF + remote peer behind a Geneve tunnel.
func nsxStylePipeline(localMAC, remoteMAC hdr.MAC, localVTEP, remoteVTEP hdr.IP4, localPort uint32) *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mTun := flow.NewMaskBuilder().InPort().EthType().IPProto().TPDst().Build()
	mEth := flow.NewMaskBuilder().EthType().Build()
	mCt := flow.NewMaskBuilder().CtState(0x07).Build()
	mMac := flow.NewMaskBuilder().EthDst().Build()

	// Table 0: classification (pass 1).
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 200,
		Match: ofproto.NewMatch(flow.Fields{InPort: f8Uplink,
			EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP, TPDst: hdr.GenevePort}, mTun),
		Actions: []ofproto.Action{ofproto.TunnelPop(f8TnlPop)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
		Match:   ofproto.NewMatch(flow.Fields{InPort: f8TnlPop}, mIn),
		Actions: []ofproto.Action{ofproto.GotoTable(10)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
		Match:   ofproto.NewMatch(flow.Fields{InPort: localPort}, mIn),
		Actions: []ofproto.Action{ofproto.GotoTable(10)}})

	// Table 10: firewall send-to-conntrack (pass 2 boundary).
	pl.AddRule(&ofproto.Rule{TableID: 10, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, mEth),
		Actions: []ofproto.Action{ofproto.CT(7, true, 11)}})
	pl.AddRule(&ofproto.Rule{TableID: 10, Priority: 20,
		Match:   ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeARP}, mEth),
		Actions: []ofproto.Action{ofproto.GotoTable(20)}})

	// Table 11: post-conntrack (pass 3).
	pl.AddRule(&ofproto.Rule{TableID: 11, Priority: 100,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x05}, mCt),
		Actions: []ofproto.Action{ofproto.GotoTable(20)}})
	pl.AddRule(&ofproto.Rule{TableID: 11, Priority: 90,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x03}, mCt),
		Actions: []ofproto.Action{ofproto.GotoTable(20)}})

	// Table 20: L2.
	pl.AddRule(&ofproto.Rule{TableID: 20, Priority: 50,
		Match:   ofproto.NewMatch(flow.Fields{EthDst: localMAC}, mMac),
		Actions: []ofproto.Action{ofproto.Output(localPort)}})
	pl.AddRule(&ofproto.Rule{TableID: 20, Priority: 50,
		Match: ofproto.NewMatch(flow.Fields{EthDst: remoteMAC}, mMac),
		Actions: []ofproto.Action{
			ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve,
				LocalIP: localVTEP, RemoteIP: remoteVTEP, VNI: 5000}),
			ofproto.Output(f8Uplink)}})
	return pl
}

// tunnelCache builds a netlink replica resolving the peer VTEP.
func tunnelCache(eng *sim.Engine, local, remote hdr.IP4) *netlinksim.Cache {
	k := netlinksim.NewKernel()
	idx, _ := k.AddLink("uplink", "mlx5_core", hdr.MAC{0x02, 0xee, 0, 0, 0, 1}, 1600)
	k.AddAddr("uplink", local, 16)
	k.AddNeigh(netlinksim.Neigh{IP: remote, MAC: hdr.MAC{0x02, 0xee, 0, 0, 0, 2}, LinkIndex: idx})
	return netlinksim.NewCache(k)
}

// fig8aConfig is one Figure 8(a) bar.
type fig8aConfig struct {
	name      string
	kind      DPKind
	vd        VDevKind
	mode      core.Mode
	assumeCsm bool
	// bare disables O2-O4 (the interrupt bar "cannot take advantage of
	// any of the optimizations described in Section 3").
	bare  bool
	paper float64
}

// hostSide is one host's datapath plus its VM attachment in the dual-host
// bed.
type hostSide struct {
	dp     *core.Datapath
	kdp    *kernelsim.Datapath
	vmDev  *vdev.VhostUser
	tapDev *vmsim.TapBackend
	vm     *vmsim.VM
}

// runFig8a builds the two hosts, runs the bulk transfer, and reports Gbps.
func runFig8a(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "fig8a", Title: "bulk TCP, VM to VM across hosts, Geneve, 10GbE (Gbps)"}
	cases := []fig8aConfig{
		{"kernel + tap", KindKernel, VDevTap, core.ModePoll, false, false, 2.2},
		{"afxdp + tap (interrupt)", KindAFXDP, VDevTap, core.ModeInterrupt, false, true, 1.9},
		{"afxdp + tap (poll, O1-O4)", KindAFXDP, VDevTap, core.ModePoll, false, false, 3.0},
		{"afxdp + vhost (no offload)", KindAFXDP, VDevVhost, core.ModePoll, false, false, 4.4},
		{"afxdp + vhost (csum offload)", KindAFXDP, VDevVhost, core.ModePoll, true, false, 6.5},
	}
	for _, c := range cases {
		gbps := runFig8aCase(p, c)
		r.Add(c.name, gbps, c.paper, "Gbps")
	}
	r.AddNote("each packet takes 3 datapath passes (classify, post-ct, post-decap/ct)")
	return r
}

func runFig8aCase(p Profile, c fig8aConfig) float64 {
	b := newFig8aBed(c)
	b.bulk.Start()
	b.eng.RunUntil(20 * sim.Millisecond)
	return b.bulk.ThroughputGbps()
}

// fig8aBed is one Figure 8(a) case built and ready to start: two hosts
// joined by a 10 GbE wire and the bulk transfer between their VMs.
type fig8aBed struct {
	eng   *sim.Engine
	bulk  *trafficgen.Bulk
	hosts [2]*hostSide
}

func newFig8aBed(c fig8aConfig) *fig8aBed {
	eng := sim.NewEngine(5)

	// The 10 GbE wire between the hosts.
	nic1 := nicsim.New(eng, nicsim.Config{Name: "h1-uplink", Ifindex: 1, Queues: 1,
		LinkRate: costmodel.LinkRate10G,
		Offloads: offloadsFor(c.kind)})
	nic2 := nicsim.New(eng, nicsim.Config{Name: "h2-uplink", Ifindex: 2, Queues: 1,
		LinkRate: costmodel.LinkRate10G,
		Offloads: offloadsFor(c.kind)})
	nic1.ConnectWire(func(pk *packet.Packet) { nic2.Receive(pk) })
	nic2.ConnectWire(func(pk *packet.Packet) { nic1.Receive(pk) })

	opts := core.DefaultOptions()
	opts.AssumeCsumOffload = c.assumeCsm
	if c.bare {
		opts.MetadataPrealloc = false
	}

	pl1 := nsxStylePipeline(f8SenderMAC, f8ReceiverMAC, f8VTEP1, f8VTEP2, f8VM)
	pl2 := nsxStylePipeline(f8ReceiverMAC, f8SenderMAC, f8VTEP2, f8VTEP1, f8VM)

	var bulk *trafficgen.Bulk
	h1 := buildHost(eng, c, nic1, pl1, tunnelCache(eng, f8VTEP1, f8VTEP2), opts,
		func(vm *vmsim.VM, pk *packet.Packet) { bulk.OnAckArrived(pk) })
	h2 := buildHost(eng, c, nic2, pl2, tunnelCache(eng, f8VTEP2, f8VTEP1), opts,
		func(vm *vmsim.VM, pk *packet.Packet) { bulk.OnDataArrived(pk) })

	var sc kernelsim.SocketCosts
	bulk = trafficgen.NewBulk(trafficgen.BulkConfig{
		Eng: eng, MSS: 1460, SendSize: 1460, Window: 256 * 1024,
		SrcMAC: f8SenderMAC, DstMAC: f8ReceiverMAC,
		SrcIP: f8SenderIP, DstIP: f8ReceiverIP, SrcPort: 35000, DstPort: 5001,
		MarkCsumPartial: false, // offload estimation happens in the datapath
		SenderCharge: func(bytes int) {
			h1.vm.CPU.Consume(sim.Guest, costmodel.SyscallBase+costmodel.CopyCost(bytes))
		},
		ReceiverCharge: func(bytes int) {
			h2.vm.CPU.Consume(sim.Guest, sc.RecvCost(bytes))
		},
		SendData: func(pk *packet.Packet) { h1.vm.Transmit(pk) },
		SendAck:  func(pk *packet.Packet) { h2.vm.Transmit(pk) },
	})
	return &fig8aBed{eng: eng, bulk: bulk, hosts: [2]*hostSide{h1, h2}}
}

func offloadsFor(kind DPKind) nicsim.Offloads {
	if kind == KindAFXDP {
		return nicsim.Offloads{}
	}
	return nicsim.Offloads{RxCsum: true, TxCsum: true, TSO: true, RSSHashDeliver: true}
}

// buildHost wires one host: uplink + VM port + datapath of the right kind.
func buildHost(eng *sim.Engine, c fig8aConfig, nic *nicsim.NIC, pl *ofproto.Pipeline,
	cache *netlinksim.Cache, opts core.Options, onPacket func(*vmsim.VM, *packet.Packet)) *hostSide {
	h := &hostSide{}

	kcpu := eng.NewCPU("ksoftirqd-" + nic.Name)
	var backend vmsim.Backend
	var vmPort core.Port
	if c.vd == VDevVhost {
		h.vmDev = vdev.NewVhostUser("vh-" + nic.Name)
		backend = &vmsim.VhostUserBackend{Dev: h.vmDev}
		vmPort = core.NewVhostPort(f8VM, h.vmDev)
	} else {
		tap := vdev.NewTap("tap-" + nic.Name)
		relayCPU := eng.NewCPU("qemu-" + nic.Name)
		if c.kind == KindKernel {
			// The kernel datapath's tap traffic is relayed by the
			// vhost-net kernel thread, which contends with the same
			// softirq work (the paper's 2.2 Gbps ceiling).
			relayCPU = kcpu
		}
		h.tapDev = vmsim.NewTapBackend(eng, tap, relayCPU)
		backend = h.tapDev
		vmPort = core.NewTapPort(f8VM, tap)
	}
	h.vm = vmsim.New(eng, vmsim.Config{Name: "vm-" + nic.Name, Backend: backend,
		OffloadsNegotiated: c.assumeCsm, OnPacket: onPacket})

	switch c.kind {
	case KindKernel:
		kdp := kernelsim.NewDatapath(eng, kernelsim.FlavorModule, pl)
		h.kdp = kdp
		tapB := h.tapDev
		kdp.Outputs[f8Uplink] = func(pk *packet.Packet) {
			// Kernel-side Geneve encapsulation happens in execute();
			// the byte-level encap for the wire is done here so the
			// peer can decapsulate.
			outer := encapForWire(eng, cache, pk)
			if outer != nil {
				nic.Transmit(outer)
			}
		}
		kdp.Outputs[f8VM] = func(pk *packet.Packet) {
			if tapB != nil {
				tapB.Tap.ToKernel.Push(pk)
			}
		}
		cpu := kcpu
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
			Src:     kernelsim.NICQueueSource{Q: nic.Queue(0)},
			Handler: kdpKernelRx(kdp)}).Start()
		if tapB != nil {
			(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
				Src: kernelsim.VQueueSource{Q: tapB.Tap.FromKernel},
				Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
					for _, pk := range pkts {
						pk.InPort = f8VM
						kdp.Process(cpu, pk)
					}
				}}).Start()
		}
	default: // AF_XDP
		if _, err := core.AttachDefaultProgram(nic); err != nil {
			panic(err)
		}
		dp := core.NewDatapath(eng, pl, opts)
		dp.Encapper = tunnel.NewEncapper(cache)
		h.dp = dp
		lock := afxdp.LockSpinBatched
		if c.bare {
			lock = afxdp.LockMutex
		}
		uplink := core.NewAFXDPPort(core.AFXDPPortConfig{ID: f8Uplink, NIC: nic, Eng: eng, LockMode: lock})
		dp.AddPort(uplink)
		dp.AddPort(vmPort)
		pmd := dp.NewPMD(c.mode, nil)
		dp.AssignRxqTo(pmd, uplink, 0)
		dp.AssignRxqTo(pmd, vmPort, 0)
		pmd.Start()
	}
	return h
}

// kdpKernelRx handles uplink arrivals on the kernel datapath: tunneled
// packets are decapsulated in the kernel stack before the flow table pass.
func kdpKernelRx(kdp *kernelsim.Datapath) func(*sim.CPU, []*packet.Packet) {
	return func(cpu *sim.CPU, pkts []*packet.Packet) {
		for _, pk := range pkts {
			if was, err := tunnel.Decap(pk); was && err == nil {
				cpu.Consume(sim.Softirq, costmodel.TunnelDecap)
				pk.InPort = f8TnlPop
				kdp.Process(cpu, pk)
				continue
			}
			pk.InPort = f8Uplink
			kdp.Process(cpu, pk)
		}
	}
}

// encapForWire performs Geneve encapsulation for the kernel datapath's
// uplink output (its execute() only charges the cost).
func encapForWire(eng *sim.Engine, cache *netlinksim.Cache, pk *packet.Packet) *packet.Packet {
	enc := tunnel.NewEncapper(cache)
	remote := f8VTEP2
	local := f8VTEP1
	// Direction: data goes 1->2, acks 2->1; pick by destination MAC.
	if eth, err := hdr.ParseEthernet(pk.Data); err == nil && eth.Dst == f8SenderMAC {
		remote, local = f8VTEP1, f8VTEP2
	}
	outer, err := enc.Encap(pk, tunnel.Config{Kind: tunnel.Geneve,
		LocalIP: local, RemoteIP: remote, VNI: 5000})
	if err != nil {
		return nil
	}
	return outer
}

// --- Figure 8b: intra-host VM to VM ------------------------------------------

type fig8bConfig struct {
	name  string
	kind  DPKind
	vd    VDevKind
	csum  bool // guest checksum offload negotiated
	tso   bool // oversized sends + AssumeTSO
	paper float64
}

func runFig8b(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "fig8b", Title: "bulk TCP, VM to VM within a host (Gbps)"}
	cases := []fig8bConfig{
		{"kernel + tap (csum+TSO)", KindKernel, VDevTap, true, true, 12},
		{"afxdp + tap", KindAFXDP, VDevTap, false, false, 2.5},
		{"afxdp + vhost (no offload)", KindAFXDP, VDevVhost, false, false, 3.8},
		{"afxdp + vhost (csum)", KindAFXDP, VDevVhost, true, false, 8.4},
		{"afxdp + vhost (csum+TSO)", KindAFXDP, VDevVhost, true, true, 29},
	}
	for _, c := range cases {
		gbps := runFig8bCase(p, c)
		r.Add(c.name, gbps, c.paper, "Gbps")
	}
	r.AddNote("TSO bars move 64kB segments end-to-end; vhostuser skips the QEMU relay")
	return r
}

func runFig8bCase(p Profile, c fig8bConfig) float64 {
	eng := sim.NewEngine(5)

	// Both VMs on one host; pipeline forwards by MAC after conntrack.
	pl := ofproto.NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mEth := flow.NewMaskBuilder().EthType().Build()
	mCt := flow.NewMaskBuilder().CtState(0x07).Build()
	mMac := flow.NewMaskBuilder().EthDst().Build()
	for _, port := range []uint32{f8VM, f8VM2} {
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
			Match:   ofproto.NewMatch(flow.Fields{InPort: port}, mIn),
			Actions: []ofproto.Action{ofproto.GotoTable(10)}})
	}
	pl.AddRule(&ofproto.Rule{TableID: 10, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, mEth),
		Actions: []ofproto.Action{ofproto.CT(7, true, 11)}})
	pl.AddRule(&ofproto.Rule{TableID: 11, Priority: 100,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x05}, mCt),
		Actions: []ofproto.Action{ofproto.GotoTable(20)}})
	pl.AddRule(&ofproto.Rule{TableID: 11, Priority: 90,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x03}, mCt),
		Actions: []ofproto.Action{ofproto.GotoTable(20)}})
	pl.AddRule(&ofproto.Rule{TableID: 20, Priority: 50,
		Match:   ofproto.NewMatch(flow.Fields{EthDst: f8ReceiverMAC}, mMac),
		Actions: []ofproto.Action{ofproto.Output(f8VM2)}})
	pl.AddRule(&ofproto.Rule{TableID: 20, Priority: 50,
		Match:   ofproto.NewMatch(flow.Fields{EthDst: f8SenderMAC}, mMac),
		Actions: []ofproto.Action{ofproto.Output(f8VM)}})

	opts := core.DefaultOptions()
	opts.AssumeCsumOffload = c.csum
	opts.AssumeTSO = c.tso

	var bulk *trafficgen.Bulk
	mkVM := func(name string, id uint32, onPkt func(*vmsim.VM, *packet.Packet)) (core.Port, *vmsim.VM) {
		var backend vmsim.Backend
		var port core.Port
		if c.vd == VDevVhost {
			dev := vdev.NewVhostUser("vh-" + name)
			backend = &vmsim.VhostUserBackend{Dev: dev}
			port = core.NewVhostPort(id, dev)
		} else {
			tap := vdev.NewTap("tap-" + name)
			backend = vmsim.NewTapBackend(eng, tap, eng.NewCPU("qemu-"+name))
			port = core.NewTapPort(id, tap)
		}
		vm := vmsim.New(eng, vmsim.Config{Name: name, Backend: backend,
			OffloadsNegotiated: c.csum, OnPacket: onPkt})
		return port, vm
	}

	var senderVM, receiverVM *vmsim.VM
	var senderPort, receiverPort core.Port

	switch c.kind {
	case KindKernel:
		// In-kernel switching between two taps with full offloads: the
		// datapath moves 64kB frames without touching payload.
		kdp := kernelsim.NewDatapath(eng, kernelsim.FlavorModule, pl)
		tapS := vdev.NewTap("tap-s")
		tapR := vdev.NewTap("tap-r")
		backendS := vmsim.NewTapBackend(eng, tapS, eng.NewCPU("qemu-s"))
		backendR := vmsim.NewTapBackend(eng, tapR, eng.NewCPU("qemu-r"))
		senderVM = vmsim.New(eng, vmsim.Config{Name: "s", Backend: backendS,
			OffloadsNegotiated: true,
			OnPacket:           func(vm *vmsim.VM, pk *packet.Packet) { bulk.OnAckArrived(pk) }})
		receiverVM = vmsim.New(eng, vmsim.Config{Name: "r", Backend: backendR,
			OffloadsNegotiated: true,
			OnPacket:           func(vm *vmsim.VM, pk *packet.Packet) { bulk.OnDataArrived(pk) }})
		kdp.Outputs[f8VM2] = func(pk *packet.Packet) { tapR.ToKernel.Push(pk) }
		kdp.Outputs[f8VM] = func(pk *packet.Packet) { tapS.ToKernel.Push(pk) }
		cpu := eng.NewCPU("ksoftirqd")
		for _, src := range []struct {
			q  *vdev.Queue
			in uint32
		}{{tapS.FromKernel, f8VM}, {tapR.FromKernel, f8VM2}} {
			s := src
			(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
				Src: kernelsim.VQueueSource{Q: s.q},
				Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
					for _, pk := range pkts {
						pk.InPort = s.in
						kdp.Process(cpu, pk)
					}
				}}).Start()
		}
	default:
		dp := core.NewDatapath(eng, pl, opts)
		senderPort, senderVM = mkVM("s", f8VM, func(vm *vmsim.VM, pk *packet.Packet) { bulk.OnAckArrived(pk) })
		receiverPort, receiverVM = mkVM("r", f8VM2, func(vm *vmsim.VM, pk *packet.Packet) { bulk.OnDataArrived(pk) })
		dp.AddPort(senderPort)
		dp.AddPort(receiverPort)
		pmd := dp.NewPMD(core.ModePoll, nil)
		dp.AssignRxqTo(pmd, senderPort, 0)
		dp.AssignRxqTo(pmd, receiverPort, 0)
		pmd.Start()
	}

	sendSize := 1460
	window := 512 * 1024
	if c.tso {
		sendSize = 65536
		window = 2 * 1024 * 1024
	}
	var sc kernelsim.SocketCosts
	bulk = trafficgen.NewBulk(trafficgen.BulkConfig{
		Eng: eng, MSS: 1460, SendSize: sendSize, Window: window,
		SrcMAC: f8SenderMAC, DstMAC: f8ReceiverMAC,
		SrcIP: f8SenderIP, DstIP: f8ReceiverIP, SrcPort: 35000, DstPort: 5001,
		MarkTSO:         c.tso,
		MarkCsumPartial: c.csum,
		SenderCharge: func(bytes int) {
			senderVM.CPU.Consume(sim.Guest, costmodel.SyscallBase+costmodel.CopyCost(bytes))
		},
		ReceiverCharge: func(bytes int) {
			receiverVM.CPU.Consume(sim.Guest, sc.RecvCost(bytes))
		},
		SendData: func(pk *packet.Packet) { senderVM.Transmit(pk) },
		SendAck:  func(pk *packet.Packet) { receiverVM.Transmit(pk) },
	})
	bulk.Start()
	eng.RunUntil(20 * sim.Millisecond)
	return bulk.ThroughputGbps()
}

// --- Figure 8c: container to container ----------------------------------------

type fig8cConfig struct {
	name  string
	mode  string // "kernel" | "xdp" | "afxdp"
	csum  bool
	tso   bool
	paper float64
}

func runFig8c(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "fig8c", Title: "bulk TCP, container to container within a host (Gbps)"}
	cases := []fig8cConfig{
		{"kernel veth (no offload)", "kernel", false, false, 5.9},
		{"kernel veth (csum+TSO)", "kernel", true, true, 49},
		{"afxdp XDP redirect", "xdp", false, false, 5.7},
		{"afxdp veth (no offload)", "afxdp", false, false, 4.1},
		{"afxdp veth (csum)", "afxdp", true, false, 5.0},
		{"afxdp veth (csum+TSO)", "afxdp", true, true, 8.0},
	}
	for _, c := range cases {
		gbps := runFig8cCase(p, c)
		r.Add(c.name, gbps, c.paper, "Gbps")
	}
	r.AddNote("XDP lacks csum/TSO, so in-kernel veth keeps the TCP crown (Outcome #1)")
	return r
}

func runFig8cCase(p Profile, c fig8cConfig) float64 {
	eng := sim.NewEngine(5)
	vethS := vdev.NewVethPair("veth-s")
	vethR := vdev.NewVethPair("veth-r")

	var bulk *trafficgen.Bulk
	var sender, receiver *containersim.Container
	sender = containersim.New(eng, containersim.Config{Name: "s", Veth: vethS,
		OnPacket: func(ct *containersim.Container, pk *packet.Packet) { bulk.OnAckArrived(pk) }})
	receiver = containersim.New(eng, containersim.Config{Name: "r", Veth: vethR,
		OnPacket: func(ct *containersim.Container, pk *packet.Packet) { bulk.OnDataArrived(pk) }})

	switch c.mode {
	case "kernel", "xdp":
		// In-kernel switching (OVS module) or in-kernel XDP redirect
		// between the veths; XDP charges program costs and cannot use
		// csum/TSO.
		cpu := eng.NewCPU("softirq")
		hopCost := func(pk *packet.Packet) sim.Time {
			if c.mode == "xdp" {
				return costmodel.XDPDriverOverhead + costmodel.XDPRedirectVeth +
					costmodel.EBPFPacketTouch + costmodel.VethCrossing
			}
			return costmodel.SkbAlloc + costmodel.KernelOVSLookup +
				costmodel.KernelOVSActions + costmodel.VethCrossing
		}
		fwd := func(dst *vdev.VethPair) func(*sim.CPU, []*packet.Packet) {
			return func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, pk := range pkts {
					cpu.Consume(sim.Softirq, hopCost(pk))
					dst.SendA(pk)
				}
			}
		}
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
			Src: kernelsim.VQueueSource{Q: vethS.BtoA}, Handler: fwd(vethR)}).Start()
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
			Src: kernelsim.VQueueSource{Q: vethR.BtoA}, Handler: fwd(vethS)}).Start()
	case "afxdp":
		// Figure 5 path A: veth -> AF_XDP (generic) -> OVS userspace ->
		// veth.
		opts := core.DefaultOptions()
		opts.AssumeCsumOffload = c.csum
		opts.AssumeTSO = c.tso
		// Bidirectional: data 1 -> 3, acks 3 -> 1.
		plc := ofproto.NewPipeline()
		mInC := flow.NewMaskBuilder().InPort().Build()
		plc.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, mInC),
			Actions: []ofproto.Action{ofproto.Output(3)}})
		plc.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match:   ofproto.NewMatch(flow.Fields{InPort: 3}, mInC),
			Actions: []ofproto.Action{ofproto.Output(1)}})
		dp := core.NewDatapath(eng, plc, opts)
		softirq := eng.NewCPU("softirq")
		portS := core.NewVethPort(1, eng, vethS, softirq)
		portR := core.NewVethPort(3, eng, vethR, softirq)
		dp.AddPort(portS)
		dp.AddPort(portR)
		// Reverse rule: acks from the receiver side go back out port 1.
		pmd := dp.NewPMD(core.ModePoll, nil)
		dp.AssignRxqTo(pmd, portS, 0)
		dp.AssignRxqTo(pmd, portR, 0)
		pmd.Start()
	}

	sendSize := 1460
	window := 512 * 1024
	if c.tso {
		sendSize = 65536
		window = 2 * 1024 * 1024
	}
	var sc kernelsim.SocketCosts
	bulk = trafficgen.NewBulk(trafficgen.BulkConfig{
		Eng: eng, MSS: 1460, SendSize: sendSize, Window: window,
		SrcMAC: f8SenderMAC, DstMAC: f8ReceiverMAC,
		SrcIP: f8SenderIP, DstIP: f8ReceiverIP, SrcPort: 35000, DstPort: 5001,
		MarkTSO:         c.tso,
		MarkCsumPartial: c.csum,
		// Container.Transmit already charges the send syscall and copy;
		// only the optional software checksum is extra.
		SenderCharge: func(bytes int) {
			if !c.csum {
				sender.AppCPU.Consume(sim.Softirq, costmodel.ChecksumCost(bytes))
			}
		},
		ReceiverCharge: func(bytes int) {
			receiver.AppCPU.Consume(sim.Softirq, sc.RecvCost(bytes))
			if !c.csum {
				receiver.AppCPU.Consume(sim.Softirq, costmodel.ChecksumCost(bytes))
			}
		},
		SendData: func(pk *packet.Packet) {
			if c.csum {
				pk.Offloads |= packet.CsumPartial
			}
			sender.Transmit(pk)
		},
		SendAck: func(pk *packet.Packet) { receiver.Transmit(pk) },
	})
	bulk.Start()
	eng.RunUntil(20 * sim.Millisecond)
	return bulk.ThroughputGbps()
}
