package dpif_test

import (
	"reflect"
	"testing"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

func ctPacket(sport uint16) *packet.Packet {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(sport, 80, 1, 0, hdr.TCPSyn).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 1
	return p
}

// ctStatsObservation drives the same conntrack scenario on one provider:
// commits in two zones through the DPCT action, then snapshots the
// conntrack slice of Stats. It also returns the engine and datapath so the
// caller can run time on.
func ctStatsObservation(t *testing.T, name string) (*sim.Engine, dpif.Dpif, dpif.Stats) {
	t.Helper()
	eng := sim.NewEngine(1)
	d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: ofproto.NewPipeline()})
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	if err := d.SetConfig(map[string]string{"ct-shards": "4"}); err != nil {
		t.Fatalf("%s: SetConfig(ct-shards): %v", name, err)
	}
	if got := d.GetConfig()["ct-shards"]; got != "4" {
		t.Fatalf("%s: ct-shards roundtrip = %q, want 4", name, got)
	}
	for _, port := range []uint32{1, 2} {
		if err := d.PortAdd(dpif.TxPort{PortID: port, PortName: "p",
			Deliver: func(*packet.Packet) {}}); err != nil {
			t.Fatalf("%s: PortAdd: %v", name, err)
		}
	}
	mask := flow.NewMaskBuilder().InPort().RecircID().TPSrc().Build()
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		f := key.Unpack()
		zone := uint16(3)
		if f.TPSrc >= 1002 {
			zone = 9
		}
		if f.RecircID == 0 {
			return ofproto.Megaflow{Mask: mask, Actions: ofproto.NewDPActions(
				ofproto.DPAction{Type: ofproto.DPCT, Zone: zone, Commit: true, RecircID: 1})}, nil
		}
		return ofproto.Megaflow{Mask: mask,
			Actions: ofproto.NewDPActions(ofproto.DPAction{Type: ofproto.DPOutput, Port: 2})}, nil
	})

	// Two connections in zone 3, one in zone 9.
	for _, sport := range []uint16{1000, 1001, 1002} {
		d.Execute(ctPacket(sport))
	}
	eng.RunUntil(eng.Now() + sim.Millisecond)
	return eng, d, d.Stats()
}

// TestConntrackStatsAcrossProviders: every provider surfaces the tracker's
// counters and per-zone breakdown through Stats identically, and every
// provider's table expires idle connections on its own.
func TestConntrackStatsAcrossProviders(t *testing.T) {
	for _, name := range []string{"netdev", "netlink", "ebpf"} {
		t.Run(name, func(t *testing.T) {
			eng, d, s := ctStatsObservation(t, name)
			if s.CtConns != 3 || s.CtCreated != 3 {
				t.Fatalf("ct conns=%d created=%d, want 3/3", s.CtConns, s.CtCreated)
			}
			if s.CtEarlyDrops != 0 || s.CtEvictions != 0 || s.CtTableFull != 0 || s.CtNATExhausted != 0 {
				t.Fatalf("unexpected pressure counters: %+v", s)
			}
			want := []dpif.CtZoneConns{{Zone: 3, Conns: 2}, {Zone: 9, Conns: 1}}
			if !reflect.DeepEqual(s.ConnsPerZone, want) {
				t.Fatalf("ConnsPerZone = %v, want %v", s.ConnsPerZone, want)
			}

			// No traffic and no lookup past the SynSent timeout: the
			// timers alone reclaim all three embryonic connections.
			eng.RunUntil(eng.Now() + conntrack.TimeoutSynSent + sim.Millisecond)
			s = d.Stats()
			if s.CtConns != 0 || s.CtExpired != 3 || s.ConnsPerZone != nil {
				t.Fatalf("after SynSent timeout: ct conns=%d expired=%d per-zone=%v, want 0/3/nil",
					s.CtConns, s.CtExpired, s.ConnsPerZone)
			}
		})
	}
}
