package main

import (
	"encoding/binary"
	"slices"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// Frame layout offsets (untagged Ethernet + IPv4 without options).
const (
	offIPSum   = hdr.EthernetSize + 10
	offIPSrc   = hdr.EthernetSize + 12
	offIPDst   = hdr.EthernetSize + 16
	offL4      = hdr.EthernetSize + hdr.IPv4MinSize
	offSport   = offL4
	offDport   = offL4 + 2
	udpSumOff  = offL4 + 6
	tcpSumOff  = offL4 + 16
	stampBytes = 8
)

var (
	genSrcMAC = hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}
	genDstMAC = hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}
)

// tuple is one generated flow's addressing.
type tuple struct {
	src, dst     hdr.IP4
	sport, dport uint16
}

// frameTemplate is one frame size's prebuilt frame plus the partial
// one's-complement sums of its IPv4 header and L4 segment taken with every
// per-packet field (addresses, ports, stamp, checksums) zeroed, so a packet's
// checksums cost a handful of additions instead of a pass over the payload.
type frameTemplate struct {
	data     []byte
	ipBase   uint32
	l4Base   uint32
	stampOff int
}

// newTemplate builds a zero-addressed frame of exactly size bytes.
func newTemplate(tcp bool, size int) frameTemplate {
	b := hdr.NewBuilder().Eth(genSrcMAC, genDstMAC).IPv4H(0, 0, 64)
	hdrLen := offL4 + hdr.UDPSize
	if tcp {
		b = b.TCPH(0, 0, 1, 1, hdr.TCPAck)
		hdrLen = offL4 + hdr.TCPMinSize
	} else {
		b = b.UDPH(0, 0)
	}
	data := b.PayloadLen(size - hdrLen).Build()
	t := frameTemplate{data: data, stampOff: hdrLen}
	sumOff := udpSumOff
	if tcp {
		sumOff = tcpSumOff
	}
	data[offIPSum], data[offIPSum+1] = 0, 0
	data[sumOff], data[sumOff+1] = 0, 0
	t.ipBase = sum16(data[hdr.EthernetSize:offL4])
	l4 := data[offL4:]
	// Pseudo-header words that do not depend on the addresses.
	t.l4Base = sum16(l4) + uint32(data[hdr.EthernetSize+9]) + uint32(len(l4))
	return t
}

// sum16 is the unfolded one's-complement sum of b's big-endian words.
func sum16(b []byte) uint32 {
	var s uint32
	for i := 0; i+1 < len(b); i += 2 {
		s += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		s += uint32(b[len(b)-1]) << 8
	}
	return s
}

func fold(s uint32) uint16 {
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return uint16(s)
}

// mix is a stateless 64-bit hash (splitmix64 finalizer): the generator
// derives every per-flow and per-packet choice from (seed, index) with it,
// so the wire side can recompute what any packet should look like.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// gen is the open-loop traffic generator. Packet k is due at a fixed
// virtual time computed from k alone — a constant-rate schedule with a
// seeded sub-interval jitter — and is emitted at that time whatever the
// switch is doing, as a hardware tester does. The schedule runs on the
// simulation clock, so the generator is never late.
type gen struct {
	eng  *sim.Engine
	w    *workload
	seed uint64
	// sink receives every generated packet (NIC A's receive path).
	sink func(*packet.Packet) bool
	// stamp writes each packet's due time into its L4 payload.
	stamp bool

	t0       sim.Time
	periodPs int64 // inter-arrival period, picoseconds
	jitter   int64 // jitter bound, nanoseconds (< half a period)

	perm      []int32    // seeded visit order over the initial flows
	cur       []int32    // churn: the flow at each visit position
	takeovers []takeover // churn: every takeover, in packet order
	templates []frameTemplate
	sizeOf    func(k uint64) int // template index for packet k
	pool      *packet.Pool

	next    uint64 // sequence number of the next packet
	stopAt  sim.Time
	tickFn  func()
	stopped bool
}

// newGen prepares a generator for one bed. Tuples, sizes and visit order
// depend only on (workload, seed), so every bed of a run offers the same
// traffic mix.
func newGen(eng *sim.Engine, w *workload, seed uint64, rate float64, stamp bool) *gen {
	g := &gen{eng: eng, w: w, seed: seed, stamp: stamp, perm: w.orderFor(seed)}
	g.periodPs = int64(1e12 / rate)
	g.jitter = g.periodPs / 2000
	if g.jitter < 1 {
		g.jitter = 1
	}
	for _, size := range w.sizes {
		g.templates = append(g.templates, newTemplate(w.tcp, size))
	}
	g.sizeOf = w.sizePicker(seed)
	g.pool = packet.NewPool(4096, slices.Max(w.sizes), true)
	g.tickFn = g.tick
	return g
}

// due is packet k's scheduled arrival time.
func (g *gen) due(k uint64) sim.Time {
	base := int64(k) * g.periodPs / 1000
	return g.t0 + sim.Time(base+int64(mix(g.seed^k*0x2545f4914f6cdd1d)%uint64(g.jitter)))
}

// seqOf inverts due: the k whose due time is t, if t is a due time at all.
func (g *gen) seqOf(t sim.Time) (uint64, bool) {
	if t < g.t0 {
		return 0, false
	}
	k0 := (int64(t-g.t0) + 1) * 1000 / g.periodPs
	for k := k0 + 1; k >= k0-2 && k >= 0; k-- {
		if g.due(uint64(k)) == t {
			return uint64(k), true
		}
	}
	return 0, false
}

// flowOf returns the flow id packet k was sent on.
func (g *gen) flowOf(k uint64) int {
	n := uint64(len(g.perm))
	if g.w.churnPerS == 0 {
		return int(g.perm[k%n])
	}
	// Undo the takeovers made after k at k's position.
	id := g.cur[k%n]
	for i := len(g.takeovers) - 1; i >= 0 && g.takeovers[i].k > k; i-- {
		if t := g.takeovers[i]; t.pos == int32(k%n) {
			id = t.old
		}
	}
	return int(id)
}

// assign picks packet k's flow. Rounds visit the N active flows in the
// seeded order. Under churn, each time a churn step falls between two
// packets, the flow at the position about to be visited ends and a fresh
// flow takes it over, sending its first packet now: new flows start at the
// churn rate, and each retired flow stops one round after its last packet.
func (g *gen) assign(k uint64) int {
	n := uint64(len(g.perm))
	if g.w.churnPerS == 0 {
		return int(g.perm[k%n])
	}
	if k == 0 {
		g.cur = append(g.cur[:0], g.perm...)
	} else if step := g.steps(g.due(k)); step > g.steps(g.due(k-1)) {
		g.takeovers = append(g.takeovers, takeover{k: k, pos: int32(k % n), old: g.cur[k%n]})
		g.cur[k%n] = int32(int(n) + step - 1)
	}
	return int(g.cur[k%n])
}

// takeover records that packet k's flow took position pos over from old.
type takeover struct {
	k   uint64
	pos int32
	old int32
}

// steps is the number of churn steps taken by virtual time t.
func (g *gen) steps(t sim.Time) int {
	return int(float64(t-g.t0) * g.w.churnPerS / float64(sim.Second))
}

// start begins emitting at virtual time t0 until stopAt.
func (g *gen) start(t0, stopAt sim.Time) {
	g.t0, g.stopAt = t0, stopAt
	g.eng.ScheduleAt(g.due(0), g.tickFn)
}

// sent is the number of packets emitted so far.
func (g *gen) sent() uint64 { return g.next }

// sentBefore counts packets due before t.
func (g *gen) sentBefore(t sim.Time) uint64 {
	if t <= g.t0 {
		return 0
	}
	k := uint64(int64(t-g.t0) * 1000 / g.periodPs)
	for k > 0 && g.due(k-1) >= t {
		k--
	}
	for g.due(k) < t {
		k++
	}
	return k
}

func (g *gen) tick() {
	if g.stopped {
		return
	}
	k := g.next
	g.next++
	g.sink(g.build(k))
	if at := g.due(g.next); at < g.stopAt {
		g.eng.ScheduleAt(at, g.tickFn)
	} else {
		g.stopped = true
	}
}

// build materializes packet k from its size template and flow tuple.
func (g *gen) build(k uint64) *packet.Packet {
	t := &g.templates[g.sizeOf(k)]
	p := g.pool.GetCopy(t.data)
	g.fill(p.Data, t, g.w.tuple(g.seed, g.assign(k)), k)
	return p
}

// fill writes the per-packet fields into a template copy and fixes both
// checksums incrementally.
func (g *gen) fill(d []byte, t *frameTemplate, tu tuple, k uint64) {
	binary.BigEndian.PutUint32(d[offIPSrc:], uint32(tu.src))
	binary.BigEndian.PutUint32(d[offIPDst:], uint32(tu.dst))
	binary.BigEndian.PutUint16(d[offSport:], tu.sport)
	binary.BigEndian.PutUint16(d[offDport:], tu.dport)
	addr := uint32(tu.src>>16) + uint32(tu.src&0xffff) + uint32(tu.dst>>16) + uint32(tu.dst&0xffff)
	binary.BigEndian.PutUint16(d[offIPSum:], ^fold(t.ipBase+addr))
	l4 := t.l4Base + addr + uint32(tu.sport) + uint32(tu.dport)
	if g.stamp {
		s := uint64(g.due(k))
		binary.BigEndian.PutUint64(d[t.stampOff:], s)
		l4 += uint32(s>>48) + uint32(s>>32&0xffff) + uint32(s>>16&0xffff) + uint32(s&0xffff)
	}
	sum := ^fold(l4)
	if g.w.tcp {
		binary.BigEndian.PutUint16(d[tcpSumOff:], sum)
	} else {
		if sum == 0 {
			sum = 0xffff
		}
		binary.BigEndian.PutUint16(d[udpSumOff:], sum)
	}
}
