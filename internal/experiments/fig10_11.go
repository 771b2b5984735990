package experiments

import (
	"ovsxdp/internal/containersim"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/vmsim"
)

// Figure 10: netperf TCP_RR between a VM on one host and a server on the
// other; Figure 11: TCP_RR between two containers on one host.
//
// Latency structure: fixed path costs come from the real components (PMD
// poll gaps, NIC interrupt moderation with exponential jitter, ring hops);
// endpoint process wakeups are sampled log-normally, since netperf's
// client/server block in recv() between transactions.

func init() {
	register(Experiment{ID: "fig10", Title: "Inter-host VM latency (Figure 10)", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Intra-host container latency (Figure 11)", Run: runFig11})
}

// wakeupSampler models a blocked process being scheduled: a log-normal
// around p50 with tail sigma.
func wakeupSampler(eng *sim.Engine, p50 sim.Time, sigma float64) func() sim.Time {
	rnd := eng.Rand().Fork()
	mu := 0.0 // ln(scale) handled by multiplying p50
	return func() sim.Time {
		f := rnd.LogNormal(mu, sigma)
		return sim.Time(float64(p50) * f)
	}
}

// vmRRBed wires: client VM on host A <-> OVS datapath <-> uplink NIC <->
// wire <-> server host B (plain kernel endpoint).
type vmRRBed struct {
	eng *sim.Engine
	rr  *trafficgen.RR
}

func rrPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	// VM (3) <-> uplink (2).
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 3}, m),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 2}, m),
		Actions: []ofproto.Action{ofproto.Output(3)}})
	return pl
}

func newVMRRBed(kind DPKind, vd VDevKind, transactions int, seed uint64) *vmRRBed {
	eng := sim.NewEngine(seed)
	bed := &vmRRBed{eng: eng}

	nicB := nicsim.New(eng, nicsim.Config{Name: "uplink", Ifindex: 2, Queues: 1,
		LinkRate: costmodel.LinkRate25G,
		Offloads: nicsim.Offloads{TxCsum: kind != KindAFXDP, RxCsum: kind != KindAFXDP}})

	// Guest client and the endpoints' wakeup samplers: netperf blocks in
	// recv() between transactions, so each message pays a scheduler
	// wakeup (~9us median on the paper's Xeons).
	clientWake := wakeupSampler(eng, 9*sim.Microsecond, 0.30)
	serverWake := wakeupSampler(eng, 9*sim.Microsecond, 0.30)
	// Virtio completion notification into the guest: a lightweight
	// eventfd/irqfd for vhostuser, the full QEMU emulation path for tap.
	notifyP50 := sim.Time(3500)
	if vd == VDevTap {
		notifyP50 = 13 * sim.Microsecond
	}
	vmNotify := wakeupSampler(eng, notifyP50, 0.30)
	// The in-kernel datapath's work is deferred to ksoftirqd when the
	// packet arrives from process context, adding a scheduling delay
	// with a tail (part of the kernel path's P99 spread).
	softirqWake := wakeupSampler(eng, 4*sim.Microsecond, 0.60)
	var sc kernelsim.SocketCosts

	var rr *trafficgen.RR
	var clientVM *vmsim.VM
	var clientSend func(*packet.Packet)

	// Server host B: attached to the far end of the wire; replies come
	// back into nicB after wire delay.
	serverCPU := eng.NewCPU("hostB")
	nicB.ConnectWire(func(p *packet.Packet) {
		// Server host NIC interrupt + stack + netserver wakeup.
		irq := costmodel.InterruptLatencyMean/2 +
			sim.Time(eng.Rand().Exp(float64(costmodel.InterruptLatencyMean/2)))
		eng.Schedule(irq, func() {
			serverCPU.Consume(sim.Softirq, sc.SoftirqRxCost(len(p.Data)))
			eng.Schedule(serverWake(), func() { rr.OnRequestArrived(p) })
		})
	})

	switch kind {
	case KindKernel:
		kdp := kernelsim.NewDatapath(eng, kernelsim.FlavorModule, rrPipeline())
		tap := vdev.NewTap("tap0")
		backend := vmsim.NewTapBackend(eng, tap, eng.NewCPU("qemu"))
		clientVM = vmsim.New(eng, vmsim.Config{Name: "client", Backend: backend,
			OnPacket: func(vm *vmsim.VM, p *packet.Packet) {
				eng.Schedule(vmNotify()+clientWake(), func() { rr.OnResponseArrived(p) })
			}})
		kdp.Outputs[2] = func(p *packet.Packet) { nicB.Transmit(p) }
		kdp.Outputs[3] = func(p *packet.Packet) { tap.ToKernel.Push(p) }
		cpu := eng.NewCPU("ksoftirqd")
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
			Src: kernelsim.VQueueSource{Q: tap.FromKernel},
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					p.InPort = 3
					pkt := p
					eng.Schedule(softirqWake(), func() { kdp.Process(cpu, pkt) })
				}
			}}).Start()
		(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
			Src: kernelsim.NICQueueSource{Q: nicB.Queue(0)},
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					p.InPort = 2
					pkt := p
					eng.Schedule(softirqWake(), func() { kdp.Process(cpu, pkt) })
				}
			}}).Start()
		clientSend = func(p *packet.Packet) { clientVM.Transmit(p) }

	case KindAFXDP, KindDPDK:
		dp := core.NewDatapath(eng, rrPipeline(), core.DefaultOptions())
		var uplink core.Port
		if kind == KindAFXDP {
			if _, err := core.AttachDefaultProgram(nicB); err != nil {
				panic(err)
			}
			uplink = core.NewAFXDPPort(core.AFXDPPortConfig{ID: 2, NIC: nicB, Eng: eng})
		} else {
			uplink = core.NewDPDKPort(2, nicB)
		}
		dp.AddPort(uplink)

		var vmPort core.Port
		var backend vmsim.Backend
		if vd == VDevVhost {
			dev := vdev.NewVhostUser("vhost0")
			backend = &vmsim.VhostUserBackend{Dev: dev}
			vmPort = core.NewVhostPort(3, dev)
		} else {
			tap := vdev.NewTap("tap0")
			backend = vmsim.NewTapBackend(eng, tap, eng.NewCPU("qemu"))
			vmPort = core.NewTapPort(3, tap)
		}
		dp.AddPort(vmPort)
		clientVM = vmsim.New(eng, vmsim.Config{Name: "client", Backend: backend,
			OnPacket: func(vm *vmsim.VM, p *packet.Packet) {
				eng.Schedule(vmNotify()+clientWake(), func() { rr.OnResponseArrived(p) })
			}})
		pmd := dp.NewPMD(core.ModePoll, nil)
		dp.AssignRxqTo(pmd, uplink, 0)
		dp.AssignRxqTo(pmd, vmPort, 0)
		pmd.Start()
		clientSend = func(p *packet.Packet) { clientVM.Transmit(p) }
	}

	rr = trafficgen.NewRR(trafficgen.RRConfig{
		Eng: eng, Transactions: transactions,
		SrcMAC: hdr.MAC{2, 0, 0, 0, 0, 1}, DstMAC: hdr.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: hdr.MakeIP4(10, 0, 0, 1), DstIP: hdr.MakeIP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 12865,
		SendRequest: clientSend,
		SendResponse: func(p *packet.Packet) {
			// Server transmit: stack tx + wire back into nicB.
			serverCPU.Consume(sim.System, sc.SendCost(len(p.Data)))
			eng.Schedule(costmodel.WireAndNIC, func() { nicB.Receive(p) })
		},
		OnDone: eng.Stop, // busy-poll PMDs never drain the event queue
	})
	bed.rr = rr
	return bed
}

func runFig10(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "fig10", Title: "TCP_RR latency, host to VM across hosts (us)"}
	cases := []struct {
		kind          DPKind
		vd            VDevKind
		p50, p90, p99 float64 // paper, microseconds
	}{
		{KindKernel, VDevTap, 58, 68, 94},
		{KindAFXDP, VDevVhost, 39, 41, 53},
		{KindDPDK, VDevVhost, 36, 38, 45},
	}
	for _, c := range cases {
		bed := newVMRRBed(c.kind, c.vd, p.RRCount, 11)
		bed.rr.Start()
		bed.eng.Run()
		s := bed.rr.Latencies.Summarize()
		name := c.kind.String()
		r.Add(name+" P50", s.P50/1e3, c.p50, "us")
		r.Add(name+" P90", s.P90/1e3, c.p90, "us")
		r.Add(name+" P99", s.P99/1e3, c.p99, "us")
		r.Add(name+" kTPS", bed.rr.TransactionsPerSec()/1e3, 1e3/c.p50, "k/s")
	}
	r.AddNote("shape: kernel slowest with the widest tail; AF_XDP trails DPDK by a few us")
	return r
}

// containerRRBed wires two containers through one of the Figure 11
// datapaths on a single host.
type containerRRBed struct {
	eng *sim.Engine
	rr  *trafficgen.RR
}

func newContainerRRBed(mode PCPMode, transactions int, seed uint64) *containerRRBed {
	eng := sim.NewEngine(seed)
	bed := &containerRRBed{eng: eng}

	vethC := vdev.NewVethPair("veth-client")
	vethS := vdev.NewVethPair("veth-server")
	clientWake := wakeupSampler(eng, 7*sim.Microsecond, 0.35)
	serverWake := wakeupSampler(eng, 7*sim.Microsecond, 0.35)

	var rr *trafficgen.RR
	client := containersim.New(eng, containersim.Config{Name: "client", Veth: vethC,
		OnPacket: func(c *containersim.Container, p *packet.Packet) {
			eng.Schedule(clientWake(), func() { rr.OnResponseArrived(p) })
		}})
	server := containersim.New(eng, containersim.Config{Name: "server", Veth: vethS,
		OnPacket: func(c *containersim.Container, p *packet.Packet) {
			eng.Schedule(serverWake(), func() { rr.OnRequestArrived(p) })
		}})

	// The switching fabric between the two veth host ends.
	var toServer, toClient func(*packet.Packet)
	switch mode {
	case PCPKernel:
		// veth -> kernel OVS -> veth: one softirq hop each way.
		cpu := eng.NewCPU("ksoftirqd")
		kdp := kernelsim.NewDatapath(eng, kernelsim.FlavorModule, forwardPipelinePCP())
		kdp.Outputs[3] = func(p *packet.Packet) { vethS.SendA(p) }
		kdp.Outputs[2] = func(p *packet.Packet) { vethC.SendA(p) }
		toServer = func(p *packet.Packet) {
			eng.Schedule(0, func() { p.InPort = 1; kdp.Process(cpu, p) })
		}
		toClient = func(p *packet.Packet) {
			eng.Schedule(0, func() { p.InPort = 3; revProcess(kdp, cpu, p) })
		}
	case PCPAFXDPRedir:
		// In-kernel XDP redirect between the veths: one program run per
		// hop, no userspace.
		cpu := eng.NewCPU("softirq")
		hop := func(deliver func(*packet.Packet)) func(*packet.Packet) {
			return func(p *packet.Packet) {
				eng.Schedule(0, func() {
					cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead+
						costmodel.XDPRedirectVeth+costmodel.EBPFPacketTouch)
					deliver(p)
				})
			}
		}
		toServer = hop(func(p *packet.Packet) { vethS.SendA(p) })
		toClient = hop(func(p *packet.Packet) { vethC.SendA(p) })
	case PCPDPDK:
		// DPDK reaches containers via AF_PACKET: user/kernel crossings
		// with heavy queueing jitter on both directions, plus the PMD
		// batching gap (Section 5.3's explanation for 81/136/241 us).
		pmdCPU := eng.NewCPU("pmd")
		rnd := eng.Rand().Fork()
		crossing := func() sim.Time {
			// AF_PACKET injection: a fixed user/kernel crossing plus a
			// heavy-tailed queueing component (the source of Figure
			// 11's 241us P99).
			base := costmodel.DPDKContainerCrossing
			return base*17/20 + sim.Time(rnd.LogNormal(0, 1.35)*float64(base)/5)
		}
		hop := func(deliver func(*packet.Packet)) func(*packet.Packet) {
			return func(p *packet.Packet) {
				eng.Schedule(crossing(), func() {
					pmdCPU.Consume(sim.User, costmodel.DPDKRxDescriptor+costmodel.ParseFlowKey+
						costmodel.EMCHit+costmodel.ExecActionOutput)
					eng.Schedule(crossing(), func() { deliver(p) })
				})
			}
		}
		toServer = hop(func(p *packet.Packet) { vethS.SendA(p) })
		toClient = hop(func(p *packet.Packet) { vethC.SendA(p) })
	}

	// Container outbound queues feed the fabric.
	cpu := eng.NewCPU("veth-softirq")
	(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
		Src: kernelsim.VQueueSource{Q: vethC.BtoA},
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				toServer(p)
			}
		}}).Start()
	(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
		Src: kernelsim.VQueueSource{Q: vethS.BtoA},
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				toClient(p)
			}
		}}).Start()

	rr = trafficgen.NewRR(trafficgen.RRConfig{
		Eng: eng, Transactions: transactions,
		SrcMAC: hdr.MAC{2, 0, 0, 0, 0, 1}, DstMAC: hdr.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: hdr.MakeIP4(10, 0, 0, 1), DstIP: hdr.MakeIP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 12865,
		SendRequest:  func(p *packet.Packet) { client.Transmit(p) },
		SendResponse: func(p *packet.Packet) { server.Transmit(p) },
		OnDone:       eng.Stop,
	})
	bed.rr = rr
	return bed
}

// revProcess runs the reverse direction through the kernel datapath.
func revProcess(kdp *kernelsim.Datapath, cpu *sim.CPU, p *packet.Packet) {
	kdp.Process(cpu, p)
}

func runFig11(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "fig11", Title: "TCP_RR latency, container to container (us)"}
	cases := []struct {
		mode          PCPMode
		p50, p90, p99 float64
	}{
		{PCPKernel, 15, 16, 20},
		{PCPAFXDPRedir, 15, 16, 20},
		{PCPDPDK, 81, 136, 241},
	}
	for _, c := range cases {
		bed := newContainerRRBed(c.mode, p.RRCount, 13)
		bed.rr.Start()
		bed.eng.Run()
		s := bed.rr.Latencies.Summarize()
		name := c.mode.String()
		r.Add(name+" P50", s.P50/1e3, c.p50, "us")
		r.Add(name+" P90", s.P90/1e3, c.p90, "us")
		r.Add(name+" P99", s.P99/1e3, c.p99, "us")
		r.Add(name+" kTPS", bed.rr.TransactionsPerSec()/1e3, 1e3/c.p50, "k/s")
	}
	r.AddNote("shape: kernel ~ afxdp (both in-kernel paths); DPDK 5-12x slower with a heavy tail")
	return r
}
