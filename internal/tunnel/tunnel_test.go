package tunnel

import (
	"bytes"
	"testing"

	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

var (
	macA  = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB  = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
	vtepA = hdr.MakeIP4(172, 16, 0, 1)
	vtepB = hdr.MakeIP4(172, 16, 0, 2)
	gwMAC = hdr.MAC{0xde, 0xad, 0, 0, 0, 1}
	upMAC = hdr.MAC{0x02, 0xff, 0, 0, 0, 1}
)

func testCache(t *testing.T) *netlinksim.Cache {
	t.Helper()
	k := netlinksim.NewKernel()
	idx, err := k.AddLink("uplink", "mlx5_core", upMAC, 1600)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AddAddr("uplink", vtepA, 16); err != nil {
		t.Fatal(err)
	}
	if err := k.AddNeigh(netlinksim.Neigh{IP: vtepB, MAC: gwMAC, LinkIndex: idx}); err != nil {
		t.Fatal(err)
	}
	return netlinksim.NewCache(k)
}

func innerFrame() []byte {
	return hdr.NewBuilder().Eth(macA, macB).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PayloadLen(26).Build()
}

func TestGeneveEncapDecapRoundTrip(t *testing.T) {
	e := NewEncapper(testCache(t))
	inner := packet.New(innerFrame())
	cfg := Config{Kind: Geneve, LocalIP: vtepA, RemoteIP: vtepB, VNI: 5001,
		Options: []hdr.GeneveOption{{Class: 0x0104, Type: 1, Data: []byte{0, 0, 0, 9}}}}

	outer, err := e.Encap(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Outer header facts.
	eth, _ := hdr.ParseEthernet(outer.Data)
	if eth.Src != upMAC || eth.Dst != gwMAC {
		t.Fatalf("outer MACs = %s -> %s", eth.Src, eth.Dst)
	}
	ip, _ := hdr.ParseIPv4(outer.Data[eth.HeaderLen:])
	if ip.Src != vtepA || ip.Dst != vtepB {
		t.Fatalf("outer IPs = %s -> %s", ip.Src, ip.Dst)
	}

	outer.InPort = 3
	outer.RecircID = 9
	wasTunnel, err := Decap(outer)
	if err != nil || !wasTunnel {
		t.Fatalf("decap: %v %v", wasTunnel, err)
	}
	// Decap works in place: the outer packet now is the inner one.
	got := outer
	if !bytes.Equal(got.Data, inner.Data) {
		t.Fatal("inner frame corrupted")
	}
	if got.InPort != 3 || got.RecircID != 0 || got.L3Offset != -1 {
		t.Fatalf("inner metadata = %+v, want in_port kept and the rest reset", got.Metadata)
	}
	if got.Tunnel == nil || got.Tunnel.VNI != 5001 ||
		got.Tunnel.SrcIP != vtepA || got.Tunnel.DstIP != vtepB {
		t.Fatalf("tunnel info = %+v", got.Tunnel)
	}
	if !bytes.Equal(got.Tunnel.OptData, []byte{0, 0, 0, 9}) {
		t.Fatalf("geneve option lost: %v", got.Tunnel.OptData)
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	e := NewEncapper(testCache(t))
	inner := packet.New(innerFrame())
	outer, err := e.Encap(inner, Config{Kind: VXLAN, LocalIP: vtepA, RemoteIP: vtepB, VNI: 42})
	if err != nil {
		t.Fatal(err)
	}
	wasTunnel, err := Decap(outer)
	got := outer
	if err != nil || !wasTunnel || got.Tunnel.VNI != 42 {
		t.Fatalf("vxlan decap: %v %v %+v", wasTunnel, err, got)
	}
	if !bytes.Equal(got.Data, inner.Data) {
		t.Fatal("inner frame corrupted")
	}
}

func TestGRERoundTrip(t *testing.T) {
	e := NewEncapper(testCache(t))
	inner := packet.New(innerFrame())
	outer, err := e.Encap(inner, Config{Kind: GRE, LocalIP: vtepA, RemoteIP: vtepB, VNI: 7})
	if err != nil {
		t.Fatal(err)
	}
	wasTunnel, err := Decap(outer)
	got := outer
	if err != nil || !wasTunnel || got.Tunnel.VNI != 7 {
		t.Fatalf("gre decap: %v %v", wasTunnel, err)
	}
	if !bytes.Equal(got.Data, inner.Data) {
		t.Fatal("inner frame corrupted")
	}
}

func TestEncapNoRoute(t *testing.T) {
	e := NewEncapper(testCache(t))
	_, err := e.Encap(packet.New(innerFrame()),
		Config{Kind: Geneve, LocalIP: vtepA, RemoteIP: hdr.MakeIP4(203, 0, 113, 9), VNI: 1})
	if _, ok := err.(ErrNoRoute); !ok {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
}

func TestSourcePortEntropy(t *testing.T) {
	// Different inner flows must get different outer source ports so the
	// underlay's RSS can spread them.
	e := NewEncapper(testCache(t))
	cfg := Config{Kind: Geneve, LocalIP: vtepA, RemoteIP: vtepB, VNI: 1}
	ports := map[uint16]bool{}
	for i := 0; i < 32; i++ {
		f := hdr.NewBuilder().Eth(macA, macB).
			IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
			UDPH(uint16(1000+i), 2000).PayloadLen(4).Build()
		outer, err := e.Encap(packet.New(f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eth, _ := hdr.ParseEthernet(outer.Data)
		ip, _ := hdr.ParseIPv4(outer.Data[eth.HeaderLen:])
		udp, _ := hdr.ParseUDP(outer.Data[eth.HeaderLen+ip.HeaderLen:])
		ports[udp.SrcPort] = true
		if udp.SrcPort < 0xC000 {
			t.Fatalf("source port %d below the ephemeral base", udp.SrcPort)
		}
	}
	if len(ports) < 16 {
		t.Fatalf("only %d distinct source ports over 32 flows", len(ports))
	}
	// Same flow: stable port.
	a, _ := e.Encap(packet.New(innerFrame()), cfg)
	b, _ := e.Encap(packet.New(innerFrame()), cfg)
	if !bytes.Equal(a.Data[34:36], b.Data[34:36]) {
		t.Fatal("same inner flow must map to the same outer source port")
	}
}

func TestDecapNonTunnelPassthrough(t *testing.T) {
	plain := packet.New(innerFrame())
	if wasTunnel, err := Decap(plain); wasTunnel || err != nil {
		t.Fatal("plain traffic must not decap")
	}
	arp := packet.New(hdr.NewBuilder().Eth(macA, hdr.Broadcast).
		ARPH(hdr.ARPRequest, macA, vtepA, hdr.MAC{}, vtepB).Build())
	if wasTunnel, _ := Decap(arp); wasTunnel {
		t.Fatal("ARP must not decap")
	}
}

func TestDecapMalformedGeneve(t *testing.T) {
	e := NewEncapper(testCache(t))
	outer, err := e.Encap(packet.New(innerFrame()),
		Config{Kind: Geneve, LocalIP: vtepA, RemoteIP: vtepB, VNI: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the Geneve header's option length so it overruns.
	genOff := 14 + 20 + 8
	outer.Data[genOff] = 0x3f
	n := len(outer.Data)
	wasTunnel, err := Decap(outer)
	if !wasTunnel || err == nil {
		t.Fatal("malformed geneve must be recognized as tunnel and rejected")
	}
	if len(outer.Data) != n || outer.Tunnel != nil {
		t.Fatal("a rejected decap must leave the packet untouched")
	}
	// This is the Section 6 troubleshooting story: a malformed tunnel
	// header yields an error (userspace would core-dump and restart at
	// worst), never a crash of the whole simulation/host.
}

func TestERSPANRoundTrip(t *testing.T) {
	e := NewEncapper(testCache(t))
	inner := packet.New(innerFrame())
	outer, err := e.Encap(inner, Config{Kind: ERSPAN, LocalIP: vtepA, RemoteIP: vtepB, VNI: 0x2A})
	if err != nil {
		t.Fatal(err)
	}
	outerData := outer.Data
	wasTunnel, err := Decap(outer)
	got := outer
	if err != nil || !wasTunnel {
		t.Fatalf("erspan decap: %v %v", wasTunnel, err)
	}
	if got.Tunnel.VNI != 0x2A {
		t.Fatalf("session id = %d, want 42", got.Tunnel.VNI)
	}
	if !bytes.Equal(got.Data, inner.Data) {
		t.Fatal("mirrored frame corrupted")
	}
	// Sequence numbers increment per packet (the GRE seq extension the
	// backport case study revolves around).
	outer2, _ := e.Encap(inner, Config{Kind: ERSPAN, LocalIP: vtepA, RemoteIP: vtepB, VNI: 0x2A})
	g1, _ := hdr.ParseGRE(outerData[34:])
	g2, _ := hdr.ParseGRE(outer2.Data[34:])
	if !g1.HasSeq || !g2.HasSeq || g2.Seq != g1.Seq+1 {
		t.Fatalf("sequence numbers: %d then %d", g1.Seq, g2.Seq)
	}
}

func TestERSPANTruncatedHeaderRejected(t *testing.T) {
	e := NewEncapper(testCache(t))
	outer, err := e.Encap(packet.New(innerFrame()), Config{Kind: ERSPAN, LocalIP: vtepA, RemoteIP: vtepB, VNI: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the ERSPAN header (GRE w/ seq is 8 bytes; keep only 4 of
	// the 8 ERSPAN bytes).
	outer.Data = outer.Data[:34+8+4]
	if wasTunnel, err := Decap(outer); !wasTunnel || err == nil {
		t.Fatal("truncated ERSPAN must be recognized and rejected")
	}
}
