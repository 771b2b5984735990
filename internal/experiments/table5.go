package experiments

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/measure"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/xdp"
)

// Table 5: single-core XDP processing rates for the P4-generated task
// programs A-D, executed by the real eBPF VM at the driver hook.

func init() {
	register(Experiment{ID: "table5", Title: "Single-core XDP task rates (Table 5)", Run: runTable5})
}

// xdpBed drives one NIC queue through an attached XDP program on one
// softirq CPU. Delivered counts packets surviving with XDP_TX (task D);
// for drop-only tasks the processed count stands in.
type xdpBed struct {
	eng       *sim.Engine
	nic       *nicsim.NIC
	gen       *trafficgen.UDPGen
	processed uint64
	txd       uint64
}

func newXDPBed(prog *ebpf.Program, seed uint64) *xdpBed {
	eng := sim.NewEngine(seed)
	bed := &xdpBed{eng: eng}
	bed.nic = nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: 1,
		LinkRate: costmodel.LinkRate10G})
	if err := prog.Load(); err != nil {
		panic(err)
	}
	if err := bed.nic.Hook.Attach(prog); err != nil {
		panic(err)
	}
	cpu := eng.NewCPU("softirq/0")
	(&kernelsim.NAPIActor{Eng: eng, CPU: cpu,
		Src: kernelsim.NICQueueSource{Q: bed.nic.Queue(0)},
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead)
				res, cost, err := bed.nic.Hook.Run(0, p.Data, 1)
				cpu.Consume(sim.Softirq, cost)
				if err != nil {
					continue
				}
				bed.processed++
				if res.Action == ebpf.XDPTx {
					cpu.Consume(sim.Softirq, costmodel.XDPTxForward)
					bed.txd++
				}
			}
		}}).Start()
	bed.gen = trafficgen.NewUDPGen(eng, 64, 64, func(p *packet.Packet) { bed.nic.Receive(p) })
	return bed
}

func runTable5(rc RunConfig) *Report {
	p := rc.Profile
	r := &Report{ID: "table5", Title: "XDP task processing rates, one core"}
	tasks := []struct {
		name  string
		mk    func() *ebpf.Program
		paper float64
	}{
		{"A: drop only", xdp.NewDropAll, 14.0},
		{"B: parse eth/ipv4, drop", xdp.NewParseDrop, 8.1},
		{"C: parse, L2 lookup, drop", func() *ebpf.Program {
			return xdp.NewParseLookupDrop(ebpf.NewHashMap(8, 4, 1024))
		}, 7.1},
		{"D: parse, swap MACs, fwd", xdp.NewParseSwapForward, 4.7},
	}
	for _, task := range tasks {
		mk := task.mk
		probe := func(rate float64) measure.ProbeResult {
			bed := newXDPBed(mk(), 1)
			bed.gen.Run(rate, p.Warmup+p.Window)
			bed.eng.RunUntil(p.Warmup)
			sentBefore, procBefore := bed.gen.Sent, bed.processed
			dropsBefore := bed.nic.RxDropsTotal()
			bed.eng.RunUntil(p.Warmup + p.Window + 100*sim.Microsecond)
			offered := bed.gen.Sent - sentBefore
			processed := bed.processed - procBefore
			ringDrops := bed.nic.RxDropsTotal() - dropsBefore
			return measure.ProbeResult{Offered: offered, Delivered: processed, Dropped: ringDrops}
		}
		rate, _, _ := measure.LosslessRate(searchConfig(p, 20e6), probe)
		r.Add(task.name, measure.Mpps(rate), task.paper, "Mpps")
	}
	r.AddNote("task A's 14 Mpps is 10GbE line rate in the paper; here the search is capped by CPU, not the link")
	return r
}
