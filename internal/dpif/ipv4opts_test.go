package dpif_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// routerAlert is a 4-byte IPv4 option (RFC 2113); with it the IHL is 6.
var routerAlert = []byte{0x94, 0x04, 0x00, 0x00}

// withIPv4Options inserts opts after the 20-byte IPv4 header of an
// unpadded Ethernet/IPv4 frame, fixing IHL, total length and the header
// checksum. L4 checksums do not cover IP options, so they stay valid.
func withIPv4Options(frame, opts []byte) []byte {
	const l3 = hdr.EthernetSize
	out := append(append(append([]byte(nil), frame[:l3+hdr.IPv4MinSize]...), opts...), frame[l3+hdr.IPv4MinSize:]...)
	out[l3] = 4<<4 | byte((hdr.IPv4MinSize+len(opts))/4)
	binary.BigEndian.PutUint16(out[l3+2:], uint16(len(out)-l3))
	ip, _ := hdr.ParseIPv4(out[l3:])
	hdr.RewriteIPv4(out[l3:], &ip)
	return out
}

// TestIPv4OptionsSurviveRewrites sends a TCP packet whose IPv4 header
// carries an option (IHL 6) through SNAT, recirculation and dec_ttl on every
// provider. Each rewrite must edit the header in place and checksum all of
// it; re-serializing a bare 20-byte header would drop the IHL to 5 and turn
// the option into the start of the TCP header.
func TestIPv4OptionsSurviveRewrites(t *testing.T) {
	for _, name := range dpif.Types() {
		t.Run(name, func(t *testing.T) { ipv4OptionsThroughRewrites(t, name) })
	}
}

func ipv4OptionsThroughRewrites(t *testing.T, name string) {
	public := hdr.MakeIP4(192, 0, 2, 1)
	eng := sim.NewEngine(1)
	d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: ofproto.NewPipeline()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out [][]byte
	for _, port := range []uint32{1, 2} {
		if err := d.PortAdd(dpif.TxPort{PortID: port, PortName: "p", Deliver: func(p *packet.Packet) {
			out = append(out, append([]byte(nil), p.Data...))
		}}); err != nil {
			t.Fatalf("PortAdd: %v", err)
		}
	}
	mask := flow.NewMaskBuilder().InPort().RecircID().Build()
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		if key.Unpack().RecircID == 0 {
			return ofproto.Megaflow{Mask: mask, Actions: ofproto.NewDPActions(ofproto.DPAction{Type: ofproto.DPCT,
				Zone: 1, Commit: true, RecircID: 1,
				NAT: conntrack.NAT{Kind: conntrack.SNAT, Addr: public, Port: 40000}})}, nil
		}
		return ofproto.Megaflow{Mask: mask, Actions: ofproto.NewDPActions(
			ofproto.DPAction{Type: ofproto.DPDecTTL}, ofproto.DPAction{Type: ofproto.DPOutput, Port: 2})}, nil
	})
	p := packet.New(withIPv4Options(hdr.NewBuilder().Eth(hdr.MAC{2, 0, 0, 0, 0, 1}, hdr.MAC{2, 0, 0, 0, 0, 2}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1000, 80, 1, 0, hdr.TCPSyn).Build(), routerAlert))
	p.InPort = 1
	d.Execute(p)
	eng.RunUntil(sim.Millisecond)
	if len(out) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(out))
	}
	raw := out[0][hdr.EthernetSize:]
	ip, err := hdr.ParseIPv4(raw)
	if err != nil || ip.HeaderLen != 24 || ip.TTL != 63 || ip.Src != public ||
		!bytes.Equal(raw[20:24], routerAlert) || !hdr.VerifyIPv4Checksum(raw) {
		t.Fatalf("header %+v (err %v), want IHL 6 with its option, TTL 63, src %s and a valid checksum",
			ip, err, public)
	}
	tcp, err := hdr.ParseTCP(raw[24:])
	if err != nil || tcp.SrcPort != 40000 || !hdr.VerifyL4Checksum(ip.Src, ip.Dst, hdr.IPProtoTCP, raw[24:]) {
		t.Fatalf("TCP after the option: sport %d (err %v), want 40000 with a valid checksum",
			tcp.SrcPort, err)
	}
}
