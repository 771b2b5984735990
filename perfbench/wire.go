package main

import (
	"bytes"
	"encoding/binary"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// wire is the benchmark's sink on both NICs' cables. Every frame reaching
// NIC B's wire is checked against what the generator sent and what the
// pipeline specifies (forwarded unmodified out port 2): its stamp must name
// a packet that was sent and not yet seen, and its headers and length must
// be exactly that packet's. Frames on NIC A's wire left on the wrong port.
// Latency is the stamp's age on arrival, for packets due inside the
// measured window.
type wire struct {
	eng *sim.Engine
	g   *gen
	// ws/we bound the measured window by due time.
	ws, we sim.Time
	// replay, while set, passes frames through unchecked (spans replaying
	// captured packets through Dpif.Execute after the window).
	replay bool

	seen      []uint64 // bitset over sequence numbers
	delivered uint64   // frames on NIC B's wire
	wrongPort uint64   // frames on NIC A's wire
	bad       uint64   // failed checks (stamp, duplicate, headers)
	// winDelivered counts correctly delivered packets due in the window;
	// lat holds their one-way latencies in ns.
	winDelivered uint64
	lat          []int64
	firstBad     string
}

func (x *wire) fail(why string) {
	x.bad++
	if x.firstBad == "" {
		x.firstBad = why
	}
}

// onA receives frames transmitted out port 1.
func (x *wire) onA(p *packet.Packet) {
	x.wrongPort++
	x.fail("frame left on port 1")
	p.Release()
}

// onB receives frames transmitted out port 2.
func (x *wire) onB(p *packet.Packet) {
	defer p.Release()
	if x.replay {
		return
	}
	x.delivered++
	if !x.g.stamp {
		return
	}
	g := x.g
	d := p.Data
	off := g.templates[0].stampOff
	if len(d) < off+stampBytes {
		x.fail("truncated frame")
		return
	}
	due := sim.Time(binary.BigEndian.Uint64(d[off:]))
	k, ok := g.seqOf(due)
	if !ok || k >= g.sent() {
		x.fail("stamp names no sent packet")
		return
	}
	w, b := k/64, uint64(1)<<(k%64)
	for uint64(len(x.seen)) <= w {
		x.seen = append(x.seen, 0)
	}
	if x.seen[w]&b != 0 {
		x.fail("packet delivered twice")
		return
	}
	x.seen[w] |= b
	t := &g.templates[g.sizeOf(k)]
	if len(d) != len(t.data) {
		x.fail("frame length changed")
		return
	}
	// Rebuild the frame the generator sent and compare every header
	// byte plus the stamp; the rest of the payload is the template's.
	id := g.flowOf(k)
	var want [128]byte
	n := t.stampOff + stampBytes
	copy(want[:n], t.data)
	g.fill(want[:n], t, g.w.tuple(g.seed, id), k)
	if !bytes.Equal(d[:n], want[:n]) {
		x.fail("headers differ from the packet sent")
		return
	}
	if due >= x.ws && due < x.we {
		x.winDelivered++
		x.lat = append(x.lat, int64(x.eng.Now()-due))
	}
}
