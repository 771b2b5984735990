package dpif

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

func revalPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1},
			flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

func revalPacket() *packet.Packet {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 1
	return p
}

func revalDpif(t *testing.T, name string) (*sim.Engine, Dpif) {
	t.Helper()
	eng := sim.NewEngine(1)
	d, err := Open(name, Config{Eng: eng, Pipeline: revalPipeline()})
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	if err := d.PortAdd(TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("PortAdd: %v", err)
	}
	return eng, d
}
