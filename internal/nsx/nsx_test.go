package nsx

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

func TestGenerateReproducesTable3(t *testing.T) {
	rs := Generate(DefaultConfig())
	s := rs.Stats()
	if s.OpenFlowRules != 103302 {
		t.Fatalf("rules = %d, Table 3 says 103,302", s.OpenFlowRules)
	}
	if s.GeneveTunnels != 291 {
		t.Fatalf("tunnels = %d, Table 3 says 291", s.GeneveTunnels)
	}
	if s.VMs != 15 || s.IfacesPerVM != 2 {
		t.Fatalf("vms = %d x %d, Table 3 says 15 x 2", s.VMs, s.IfacesPerVM)
	}
	// Table 3 reports 40 tables; the generator's layout must land close
	// (the exact NSX table ids are proprietary).
	if s.OpenFlowTables < 28 || s.OpenFlowTables > 44 {
		t.Fatalf("tables = %d, want ~40", s.OpenFlowTables)
	}
	// Table 3 reports 31 matching fields; our flow model exposes fewer
	// named fields (NSX also matches on registers), so require a rich
	// spread rather than the exact count.
	if s.MatchingFields < 10 {
		t.Fatalf("matching fields = %d, want >= 10", s.MatchingFields)
	}
}

func TestPipelineThreePassWalk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 2000 // keep the test fast; structure is identical
	rs := Generate(cfg)
	pl := ofproto.NewPipeline()
	rs.Install(pl)

	// Pass 1: a VIF packet classifies into the egress pipeline and stops
	// at ct (the DPCT action ends translation).
	vifA, vifB := rs.VIFs[0], rs.VIFs[1]
	key := (&flow.Fields{
		InPort: vifA.Port, EthSrc: vifA.MAC, EthDst: vifB.MAC,
		EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP, IPTTL: 64,
		IP4Src: vifA.IP, IP4Dst: vifB.IP, TPDst: 8080, TPSrc: 2000,
	}).Pack()
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 1 || mf.Actions.List()[0].Type != ofproto.DPCT {
		t.Fatalf("pass-1 actions = %v", mf.Actions.List())
	}
	if mf.Actions.List()[0].Zone != vifB.Zone {
		t.Fatalf("zone = %d, want %d", mf.Actions.List()[0].Zone, vifB.Zone)
	}

	// Pass 2: recirculated with established state, the packet reaches L2
	// and outputs to vifB.
	f2 := key.Unpack()
	f2.RecircID = mf.Actions.List()[0].RecircID
	f2.CtState = 0x05 // trk|est
	mf2, err := pl.Translate(f2.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf2.Actions.List()) != 1 || mf2.Actions.List()[0].Type != ofproto.DPOutput ||
		mf2.Actions.List()[0].Port != vifB.Port {
		t.Fatalf("pass-2 actions = %v", mf2.Actions.List())
	}

	// Remote destination: the established pass emits tunnel push + uplink
	// output.
	remoteMAC := RemoteMAC(7)
	f3 := f2
	f3.EthDst = remoteMAC
	mf3, err := pl.Translate(f3.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf3.Actions.List()) != 2 || mf3.Actions.List()[0].Type != ofproto.DPTunnelPush ||
		mf3.Actions.List()[1].Port != cfg.UplinkPort {
		t.Fatalf("remote actions = %v", mf3.Actions.List())
	}
	if mf3.Actions.List()[0].Tunnel.RemoteIP != VTEPAddr(7) {
		t.Fatalf("tunnel remote = %s", mf3.Actions.List()[0].Tunnel.RemoteIP)
	}

	// Inbound tunneled traffic: outer match pops the tunnel.
	outer := (&flow.Fields{
		InPort: cfg.UplinkPort, EthType: hdr.EtherTypeIPv4,
		IPProto: hdr.IPProtoUDP, TPDst: hdr.GenevePort,
		IP4Src: VTEPAddr(3), IP4Dst: cfg.LocalVTEP, TPSrc: 50000,
	}).Pack()
	mf4, err := pl.Translate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf4.Actions.List()) != 1 || mf4.Actions.List()[0].Type != ofproto.DPTunnelPop ||
		mf4.Actions.List()[0].Port != cfg.TunnelVPort {
		t.Fatalf("inbound actions = %v", mf4.Actions.List())
	}

	// Post-decap pass: tunnel-source admission then ct.
	inner := (&flow.Fields{
		InPort: cfg.TunnelVPort, EthSrc: remoteMAC, EthDst: vifA.MAC,
		EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP,
		IP4Src: hdr.MakeIP4(10, 99, 0, 1), IP4Dst: vifA.IP,
		TunSrc: VTEPAddr(3), TunDst: cfg.LocalVTEP, TunVNI: 5000,
	}).Pack()
	mf5, err := pl.Translate(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf5.Actions.List()) != 1 || mf5.Actions.List()[0].Type != ofproto.DPCT {
		t.Fatalf("post-decap actions = %v", mf5.Actions.List())
	}
}

func TestUnknownVTEPDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 1500
	rs := Generate(cfg)
	pl := ofproto.NewPipeline()
	rs.Install(pl)

	inner := (&flow.Fields{
		InPort: cfg.TunnelVPort, EthType: hdr.EtherTypeIPv4,
		TunSrc: hdr.MakeIP4(203, 0, 113, 9), // not a known VTEP
	}).Pack()
	mf, err := pl.Translate(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 0 {
		t.Fatalf("unknown VTEP must drop, got %v", mf.Actions.List())
	}
}

func TestNewConnectionsWalkTheDFW(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 5000
	rs := Generate(cfg)
	pl := ofproto.NewPipeline()
	rs.Install(pl)

	vifA, vifB := rs.VIFs[0], rs.VIFs[1]
	key := (&flow.Fields{
		InPort: vifA.Port, EthDst: vifB.MAC, EthType: hdr.EtherTypeIPv4,
		IPProto: hdr.IPProtoTCP, IPTTL: 64, IP4Src: vifA.IP, IP4Dst: vifB.IP,
		TPSrc: 2000, TPDst: 8080,
		RecircID: 0,
	}).Pack()
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	// New connection: recirc with trk|new walks the DFW chain and, not
	// matching any filler drop, reaches L2.
	f := key.Unpack()
	f.RecircID = mf.Actions.List()[0].RecircID
	f.CtState = 0x03
	mf2, err := pl.Translate(f.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf2.Actions.List()) != 1 || mf2.Actions.List()[0].Port != vifB.Port {
		t.Fatalf("new-connection pass = %v", mf2.Actions.List())
	}
	// The DFW walk must have pinned the 5-tuple in the megaflow mask
	// (the firewall examined it), so the megaflow is narrow.
	if !mf2.Mask.Covers(flow.NewMaskBuilder().TPDst().Build()) {
		t.Fatal("DFW pass must unwildcard the destination port")
	}
}

func TestARPFloods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 1500
	rs := Generate(cfg)
	pl := ofproto.NewPipeline()
	rs.Install(pl)

	key := (&flow.Fields{
		InPort: rs.VIFs[0].Port, EthDst: hdr.Broadcast, EthType: hdr.EtherTypeARP,
	}).Pack()
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != len(rs.VIFs) {
		t.Fatalf("broadcast outputs = %d, want %d", len(mf.Actions.List()), len(rs.VIFs))
	}
}

func TestStatsString(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 1500
	if Generate(cfg).Stats().String() == "" {
		t.Fatal("empty stats string")
	}
}
