package experiments

// The umem ledger: a received AF_XDP packet is a view of its umem chunk and
// returns the chunk to the umempool when it is released, so a release site
// that is missed leaks a chunk for good (and a double hand-out panics).
// These tests drive each AF_XDP bed shape — P2P, PVP over vhostuser, and
// the Figure 8(a) Geneve hosts, whose uplink decapsulates in place — then
// drain it and require every chunk of every AF_XDP port to be back in the
// pool or on a ring, with no frame still held by a packet.

import (
	"testing"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/sim"
)

// afxdpPorts returns the AF_XDP ports among ids on dp.
func afxdpPorts(t *testing.T, dp *core.Datapath, ids ...uint32) []*core.AFXDPPort {
	t.Helper()
	var out []*core.AFXDPPort
	for _, id := range ids {
		p, ok := dp.Port(id).(*core.AFXDPPort)
		if !ok {
			t.Fatalf("port %d is %T, want an AF_XDP port", id, dp.Port(id))
		}
		out = append(out, p)
	}
	return out
}

// checkLedgers fails unless every port's chunks are all accounted for and,
// when drained is set, none is held by an unreleased packet.
func checkLedgers(t *testing.T, when string, ports []*core.AFXDPPort, drained bool) {
	t.Helper()
	for _, p := range ports {
		l := p.UmemLedger()
		if !l.Balanced() {
			t.Fatalf("%s, port %s: free %d + fill %d + rx %d + tx %d + completion %d + held %d != %d chunks",
				when, p.Name(), l.Free, l.Fill, l.Rx, l.Tx, l.Completion, l.Held, l.Chunks)
		}
		if drained && l.Held != 0 {
			t.Fatalf("%s, port %s: %d frames still held by unreleased packets", when, p.Name(), l.Held)
		}
	}
}

// runLedgerBed offers traffic for span in slices, checking the ledger after
// each, then lets the bed drain and checks that nothing is held.
func runLedgerBed(t *testing.T, bed *Bed, ids ...uint32) {
	t.Helper()
	ports := afxdpPorts(t, bed.DP.(*dpif.Netdev).Datapath(), ids...)
	const span = 2 * sim.Millisecond
	bed.Gen.Run(2e6, span)
	for now := sim.Time(0); now < span; now += 100 * sim.Microsecond {
		bed.Eng.RunUntil(now)
		checkLedgers(t, "mid-run", ports, false)
	}
	bed.Eng.RunUntil(span + sim.Millisecond)
	if bed.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	checkLedgers(t, "after drain", ports, true)
}

func TestUmemLedgerP2P(t *testing.T) {
	t.Parallel()
	for _, queues := range []int{1, 2} {
		cfg := DefaultBed(KindAFXDP, 64)
		cfg.Queues = queues
		runLedgerBed(t, NewP2PBed(cfg), 1, 2)
	}
}

func TestUmemLedgerPVPVhost(t *testing.T) {
	t.Parallel()
	cfg := DefaultBed(KindAFXDP, 64)
	cfg.VDev = VDevVhost
	runLedgerBed(t, NewPVPBed(cfg), 1, 2)
}

// The Geneve bed exercises tunnel pop: the uplink's received frame is
// decapsulated in place and recirculated, so the outer packet is the inner
// one and is released once, by the vhost port's copy into the guest.
func TestUmemLedgerFig8aGeneve(t *testing.T) {
	t.Parallel()
	b := newFig8aBed(fig8aConfig{name: "afxdp + vhost", kind: KindAFXDP, vd: VDevVhost, mode: core.ModePoll})
	var ports []*core.AFXDPPort
	for _, h := range b.hosts {
		ports = append(ports, afxdpPorts(t, h.dp, f8Uplink)...)
	}
	b.bulk.Start()
	const span = 3 * sim.Millisecond
	for now := sim.Time(0); now < span; now += 100 * sim.Microsecond {
		b.eng.RunUntil(now)
		checkLedgers(t, "mid-run", ports, false)
	}
	b.bulk.Stop()
	b.eng.RunUntil(span + 2*sim.Millisecond)
	if b.bulk.DeliveredBytes() == 0 {
		t.Fatal("no data delivered")
	}
	for _, h := range b.hosts {
		if h.dp.Recirculations == 0 {
			t.Fatal("no packet was decapsulated")
		}
	}
	checkLedgers(t, "after drain", ports, true)
}
