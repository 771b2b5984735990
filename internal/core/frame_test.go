package core

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vdev"
)

// A received AF_XDP packet is a view of its umem frame, and releasing it
// returns the frame. Every datapath path must release such a packet
// exactly once — transmitted, copied out by a device that keeps it,
// tunnelled, segmented or dropped — or the frame leaks.
func TestFramePacketReleasedOnceOnEveryPath(t *testing.T) {
	remote := hdr.MakeIP4(172, 16, 0, 2)
	geneve := func(dst hdr.IP4) ofproto.Action {
		return ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve,
			LocalIP: hdr.MakeIP4(172, 16, 0, 1), RemoteIP: dst, VNI: 7})
	}
	tcpFrame := hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1, 2, 0, 0, hdr.TCPAck).PayloadLen(4000).Build()
	cases := []struct {
		name    string
		actions []ofproto.Action
		tso     bool
		want    []int // packets out of taps 2, 3 and veth 5
	}{
		{"output", []ofproto.Action{ofproto.Output(2)}, false, []int{1, 0, 0}},
		{"two outputs", []ofproto.Action{ofproto.Output(2), ofproto.Output(3)}, false, []int{1, 1, 0}},
		{"output then rewrite", []ofproto.Action{ofproto.Output(2), ofproto.SetEthDst(macA)}, false, []int{1, 0, 0}},
		{"no output", []ofproto.Action{ofproto.SetEthDst(macA)}, false, []int{0, 0, 0}},
		{"drop", []ofproto.Action{ofproto.Drop()}, false, []int{0, 0, 0}},
		{"missing port", []ofproto.Action{ofproto.Output(9)}, false, []int{0, 0, 0}},
		{"tunnel push", []ofproto.Action{geneve(remote), ofproto.Output(2)}, false, []int{1, 0, 0}},
		{"tunnel push, no route", []ofproto.Action{geneve(hdr.MakeIP4(203, 0, 113, 9)), ofproto.Output(2)}, false, []int{0, 0, 0}},
		{"tunnel pop, not tunnelled", []ofproto.Action{ofproto.TunnelPop(100)}, false, []int{0, 0, 0}},
		{"software segmentation", []ofproto.Action{ofproto.Output(5)}, true, []int{0, 0, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			kern := netlinksim.NewKernel()
			idx, _ := kern.AddLink("uplink", "mlx5", hdr.MAC{2, 0xff, 0, 0, 0, 1}, 1600)
			kern.AddAddr("uplink", hdr.MakeIP4(172, 16, 0, 1), 16)
			kern.AddNeigh(netlinksim.Neigh{IP: remote, MAC: hdr.MAC{2, 0xff, 0, 0, 0, 2}, LinkIndex: idx})

			pl := ofproto.NewPipeline()
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
				Actions: c.actions})
			dp := NewDatapath(eng, pl, DefaultOptions())
			dp.Encapper = tunnel.NewEncapper(netlinksim.NewCache(kern))
			taps := []*vdev.Tap{vdev.NewTap("t2"), vdev.NewTap("t3")}
			dp.AddPort(NewTapPort(2, taps[0]))
			dp.AddPort(NewTapPort(3, taps[1]))
			veth := vdev.NewVethPair("v5")
			dp.AddPort(NewVethPort(5, eng, veth, eng.NewCPU("softirq-v5")))

			releases := map[int]int{}
			frames := packet.NewFramePool(1, func(i int) { releases[i]++ })
			data := udpPkt(1).Data
			if c.tso {
				data = tcpFrame
			}
			p := frames.Frame(0, append([]byte(nil), data...))
			p.InPort = 1
			if c.tso {
				p.SegSize = 1460
				p.Offloads = packet.TSO
			}
			dp.Execute(p)
			eng.RunUntil(sim.Millisecond)

			if frames.Held() != 0 || releases[0] != 1 {
				t.Fatalf("frame held %d, released %d times; want 0 and 1", frames.Held(), releases[0])
			}
			got := []int{taps[0].ToKernel.Len(), taps[1].ToKernel.Len(), veth.AtoB.Len()}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("packets out = %v, want %v", got, c.want)
				}
			}
			for _, q := range []*vdev.Queue{taps[0].ToKernel, taps[1].ToKernel, veth.AtoB} {
				for _, out := range q.Pop(q.Len()) {
					if out.InFrame() {
						t.Fatal("a device kept a packet that still views the frame")
					}
				}
			}
		})
	}
}

// An output followed by more actions sends a copy: later rewrites must not
// reach the packet already handed to the port.
func TestOutputBeforeRewriteSendsCopy(t *testing.T) {
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2), ofproto.SetEthDst(macA),
			ofproto.Output(3)}})
	dp := NewDatapath(eng, pl, DefaultOptions())
	t2, t3 := vdev.NewTap("t2"), vdev.NewTap("t3")
	dp.AddPort(NewTapPort(2, t2))
	dp.AddPort(NewTapPort(3, t3))
	p := udpPkt(1)
	p.InPort = 1
	dp.Execute(p)
	first, second := t2.ToKernel.Pop(1), t3.ToKernel.Pop(1)
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("outputs = %d, %d", len(first), len(second))
	}
	if eth, _ := hdr.ParseEthernet(first[0].Data); eth.Dst != macB {
		t.Fatalf("first output dst = %s, want the original %s", eth.Dst, macB)
	}
	if eth, _ := hdr.ParseEthernet(second[0].Data); eth.Dst != macA {
		t.Fatalf("second output dst = %s, want the rewritten %s", eth.Dst, macA)
	}
}
