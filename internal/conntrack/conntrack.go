// Package conntrack implements the userspace connection tracker OVS needed
// once the datapath left the kernel: Section 4 notes NSX depends on
// "connection tracking for firewalling in the kernel's netfilter subsystem"
// and that OVS "uses its own userspace implementations of these features".
//
// The tracker follows the OVS/netfilter model: connections are keyed by
// 5-tuple within a zone (zones keep different virtual networks' flows
// separate), carry a TCP state machine, support SNAT/DNAT with real header
// rewriting, and enforce per-zone connection limits — the feature whose
// kernel/out-of-tree double implementation Section 2.1.1 uses as a case
// study.
//
// The table is sharded (shard.go) the way the kernel's nf_conntrack hash
// is bucket-locked, records are free-listed and expire on the engine
// timer wheel (expiry.go), per-zone limits degrade gracefully under
// pressure instead of hard-failing (degrade.go), and SNAT can draw ports
// from an allocator whose exhaustion path is deterministic (natpool.go).
package conntrack

import (
	"fmt"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// Tuple is a unidirectional 5-tuple.
type Tuple struct {
	SrcIP   hdr.IP4
	DstIP   hdr.IP4
	Proto   hdr.IPProto
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the reply-direction tuple.
func (t Tuple) Reverse() Tuple {
	return Tuple{SrcIP: t.DstIP, DstIP: t.SrcIP, Proto: t.Proto, SrcPort: t.DstPort, DstPort: t.SrcPort}
}

// String formats the tuple for diagnostics.
func (t Tuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort, t.Proto)
}

// State is the connection's protocol state.
type State int

// Connection states (a condensed netfilter TCP state machine plus the
// two-step UDP/ICMP model).
const (
	StateNew State = iota
	StateSynSent
	StateSynRecv
	StateEstablished
	StateFinWait
	StateClosed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateSynSent:
		return "syn-sent"
	case StateSynRecv:
		return "syn-recv"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateClosed:
		return "closed"
	default:
		return "?"
	}
}

// Default timeouts per state, in virtual time. They are compressed relative
// to real netfilter defaults so simulations can exercise expiry without
// hours of virtual time; the ordering (established >> transient) is
// preserved.
const (
	TimeoutSynSent     = 30 * sim.Second
	TimeoutEstablished = 600 * sim.Second
	TimeoutUDP         = 60 * sim.Second
	TimeoutFin         = 10 * sim.Second
)

// Timeouts holds the per-state-class expiry intervals. Scenarios compress
// them further (connscale uses millisecond-scale timeouts to cycle a
// million connections inside one measurement window).
type Timeouts struct {
	SynSent     sim.Time
	Established sim.Time
	UDP         sim.Time
	Fin         sim.Time
}

// DefaultTimeouts returns the package-constant intervals.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		SynSent:     TimeoutSynSent,
		Established: TimeoutEstablished,
		UDP:         TimeoutUDP,
		Fin:         TimeoutFin,
	}
}

// NAT describes a translation to apply at commit time.
type NAT struct {
	// SNAT: rewrite source address/port on the original direction
	// (destination on replies). DNAT is the converse.
	Kind NATKind
	Addr hdr.IP4
	Port uint16 // 0 keeps the original port

	// PortLo/PortHi select dynamic allocation from [PortLo, PortHi]
	// (the ct(nat(src=ip:lo-hi)) form): commit draws a free port from
	// the pool and the connection holds it until removal. Both zero
	// means no range; Port is then used verbatim.
	PortLo, PortHi uint16
}

// NATKind discriminates source vs destination translation.
type NATKind int

// NAT kinds.
const (
	NATNone NATKind = iota
	SNAT
	DNAT
)

// Conn is one tracked connection.
type Conn struct {
	Zone  uint16
	Orig  Tuple
	State State
	Mark  uint32
	NAT   NAT

	created sim.Time
	expires sim.Time
	// packets per direction.
	PktsOrig, PktsReply uint64

	// Intrusive per-zone recency list (degrade.go). prev/next double as
	// the free-list link when the record is recycled.
	prev, next *Conn
	zs         *zoneState
	class      connClass

	// Expiry timer (expiry.go), armed from install to removal at or
	// before expires. Created on the record's first install and kept
	// across recycling, so its closure is allocated at most once.
	timer *sim.Timer

	// NAT port allocator bookkeeping (natpool.go).
	pool               *natPool
	poolPrev, poolNext *Conn
	poolPort           uint16
}

type connKey struct {
	zone  uint16
	tuple Tuple
}

// Table is the connection table.
type Table struct {
	eng    *sim.Engine
	shards []ctShard
	zones  map[uint16]*zoneState
	pools  map[natPoolKey]*natPool
	free   *Conn // recycled records, linked through next
	live   int

	// Loose enables mid-stream TCP pickup (nf_conntrack_tcp_loose,
	// enabled by default in Linux): a non-SYN packet with no known
	// connection creates one in the established state instead of being
	// marked invalid.
	Loose bool

	// Timeouts are the per-state expiry intervals (DefaultTimeouts
	// unless a scenario compresses them).
	Timeouts Timeouts

	// Stats. Every removal increments exactly one of Expired,
	// EarlyDrops, or Evicted, so at any instant
	// Created == Len() + Expired + EarlyDrops + Evicted.
	Created   uint64
	Expired   uint64
	LimitHits uint64 // commits refused at the hard limit (table-full drops)
	// Degradation-ladder counters (degrade.go).
	EarlyDrops uint64 // embryonic connections shed in the soft band
	Evicted    uint64 // LRU emergency evictions at the hard limit / NAT pool
	// NAT port allocator counters (natpool.go).
	NATExhausted     uint64 // commits refused with every port in the range held
	NATPortEvictions uint64 // of Evicted: evictions made to free a NAT port
	// RelatedICMP counts ICMP errors mapped back to an existing
	// connection (icmp.go).
	RelatedICMP uint64
}

// NewTable builds an empty table on the engine's clock.
func NewTable(eng *sim.Engine) *Table {
	t := &Table{
		eng:      eng,
		zones:    make(map[uint16]*zoneState),
		Loose:    true,
		Timeouts: DefaultTimeouts(),
	}
	t.initShards(DefaultShards)
	return t
}

// Len returns the number of live connections. An expired connection stops
// counting when its timer fires at the deadline.
func (t *Table) Len() int { return t.live }

// ZoneCount returns live connections in a zone.
func (t *Table) ZoneCount(zone uint16) int {
	if zs := t.zones[zone]; zs != nil {
		return zs.count
	}
	return 0
}

// TupleOf extracts the conntrack tuple from an IPv4 packet, reporting false
// for non-IPv4, fragmented-beyond-first, or ICMP-error packets (the latter
// are matched through their embedded tuple, not a tuple of their own).
func TupleOf(p *packet.Packet) (Tuple, bool) {
	tu, _, icmpErr, ok := extract(p)
	if icmpErr {
		return tu, false
	}
	return tu, ok
}

// extract pulls the 5-tuple and TCP flags out of an IPv4 frame in one
// parsing pass. icmpErr reports an ICMP error message (destination
// unreachable, time exceeded, ...) that carries an embedded tuple instead.
func extract(p *packet.Packet) (tu Tuple, tcpFlags uint8, icmpErr bool, ok bool) {
	d := p.Data
	eth, err := hdr.ParseEthernet(d)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return tu, 0, false, false
	}
	ip, err := hdr.ParseIPv4(d[eth.HeaderLen:])
	if err != nil || ip.FragOffset != 0 {
		return tu, 0, false, false
	}
	tu.SrcIP, tu.DstIP, tu.Proto = ip.Src, ip.Dst, ip.Proto
	l4 := d[eth.HeaderLen+ip.HeaderLen:]
	switch ip.Proto {
	case hdr.IPProtoTCP:
		h, err := hdr.ParseTCP(l4)
		if err != nil {
			return tu, 0, false, false
		}
		tu.SrcPort, tu.DstPort = h.SrcPort, h.DstPort
		tcpFlags = h.Flags
	case hdr.IPProtoUDP:
		h, err := hdr.ParseUDP(l4)
		if err != nil {
			return tu, 0, false, false
		}
		tu.SrcPort, tu.DstPort = h.SrcPort, h.DstPort
	case hdr.IPProtoICMP:
		h, err := hdr.ParseICMP(l4)
		if err != nil {
			return tu, 0, false, false
		}
		if icmpErrorType(h.Type) {
			return tu, 0, true, true
		}
		tu.SrcPort, tu.DstPort = h.ID, h.ID
	default:
		return tu, 0, false, false
	}
	return tu, tcpFlags, false, true
}

// Process runs the packet through the tracker in the given zone: the ct()
// datapath action. It sets the packet's conntrack metadata (CtState, CtZone,
// CtMark). With commit set, a new connection is installed (subject to the
// zone limit ladder); without it, new connections are only classified, as in
// OVS where commit happens on the firewall's allow rule.
func (t *Table) Process(p *packet.Packet, zone uint16, commit bool, nat NAT) {
	p.CtZone = zone
	tu, tcpFlags, icmpErr, ok := extract(p)
	if !ok {
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	if icmpErr {
		t.processICMPError(p, zone)
		return
	}
	now := t.eng.Now()

	c, found := t.lookup(zone, tu)
	if found && c.State == StateClosed && c.Orig.Proto == hdr.IPProtoTCP &&
		tcpFlags&hdr.TCPSyn != 0 && tcpFlags&(hdr.TCPAck|hdr.TCPRst|hdr.TCPFin) == 0 {
		// A fresh SYN over a closed (RST'd) connection reopens it, the
		// netfilter TIME_WAIT-reuse behavior: retire the stale record and
		// let the SYN start a new connection below.
		t.removeConn(c)
		t.Expired++
		found = false
	}
	if found {
		reply := c.Orig != tu
		prev := c.expires
		t.advance(c, tcpFlags, reply, now)
		if c.expires < prev {
			t.deadlineShortened(c)
		}
		t.touch(c)
		p.CtState = packet.CtTracked
		p.CtMark = c.Mark
		switch c.State {
		case StateEstablished, StateFinWait:
			p.CtState |= packet.CtEstablished
		case StateSynSent, StateSynRecv, StateNew:
			if reply {
				p.CtState |= packet.CtEstablished
			} else {
				p.CtState |= packet.CtNew
			}
		case StateClosed:
			p.CtState |= packet.CtInvalid
		}
		if reply {
			p.CtState |= packet.CtReply
			c.PktsReply++
			t.applyNAT(p, c, true)
		} else {
			c.PktsOrig++
			t.applyNAT(p, c, false)
		}
		return
	}

	// New connection.
	p.CtState = packet.CtTracked | packet.CtNew
	midstream := tu.Proto == hdr.IPProtoTCP && tcpFlags&hdr.TCPSyn == 0
	if midstream && !t.Loose {
		// Mid-stream packet with no connection: invalid.
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	if midstream {
		// Loose pickup adopts the flow as already established.
		p.CtState = packet.CtTracked | packet.CtEstablished
	}
	if !commit {
		return
	}
	zs := t.zone(zone)
	if !t.admit(zs) {
		p.CtState = packet.CtTracked | packet.CtInvalid
		return
	}
	c = t.allocConn()
	c.Zone, c.Orig, c.State, c.NAT, c.created = zone, tu, StateNew, nat, now
	if nat.Kind != NATNone && nat.PortLo != 0 {
		port, ok := t.allocNATPort(c, nat)
		if !ok {
			t.freeConn(c)
			p.CtState = packet.CtTracked | packet.CtInvalid
			return
		}
		c.NAT.Port = port
	}
	switch {
	case midstream:
		c.State = StateEstablished
		c.expires = now + t.Timeouts.Established
	case tu.Proto == hdr.IPProtoTCP:
		c.State = StateSynSent
		c.expires = now + t.Timeouts.SynSent
	default:
		c.expires = now + t.Timeouts.UDP
	}
	c.PktsOrig = 1
	c.zs = zs
	c.class = classOf(c.State)
	t.install(c)
	t.Created++
	t.applyNAT(p, c, false)
}

// lookup finds the connection for tuple in zone, in either direction,
// dropping it if expired. The timer normally removes an expired connection
// first; the deadline check keeps expires authoritative at the exact
// instant, when a packet event at time expires runs before the timer event
// at the same time.
func (t *Table) lookup(zone uint16, tu Tuple) (*Conn, bool) {
	c, ok := t.get(zone, tu)
	if !ok {
		return nil, false
	}
	if t.eng.Now() >= c.expires {
		t.removeConn(c)
		t.Expired++
		return nil, false
	}
	return c, true
}

// Find returns the connection for a tuple in a zone without touching
// state (diagnostics, tests): an expired connection reads as not found and
// stays in place for its timer, and no shard lookup is counted.
func (t *Table) Find(zone uint16, tu Tuple) (*Conn, bool) {
	c, ok := t.shardFor(zone, tu).conns[connKey{zone, tu}]
	if !ok || t.eng.Now() >= c.expires {
		return nil, false
	}
	return c, true
}

// SetMark sets the connection mark (the ct_mark field rules match on).
func (t *Table) SetMark(zone uint16, tu Tuple, mark uint32) bool {
	c, ok := t.lookup(zone, tu)
	if !ok {
		return false
	}
	c.Mark = mark
	return true
}

// advance runs the TCP (or UDP/ICMP) state machine for one packet.
func (t *Table) advance(c *Conn, tcpFlags uint8, reply bool, now sim.Time) {
	if c.Orig.Proto != hdr.IPProtoTCP {
		// UDP/ICMP: a reply establishes.
		if reply && c.State != StateEstablished {
			c.State = StateEstablished
		}
		c.expires = now + t.Timeouts.UDP
		return
	}
	switch {
	case tcpFlags&hdr.TCPRst != 0:
		c.State = StateClosed
		c.expires = now + t.Timeouts.Fin
	case tcpFlags&hdr.TCPFin != 0:
		if c.State != StateClosed {
			c.State = StateFinWait
		}
		c.expires = now + t.Timeouts.Fin
	case c.State == StateSynSent && reply && tcpFlags&hdr.TCPSyn != 0 && tcpFlags&hdr.TCPAck != 0:
		c.State = StateSynRecv
		c.expires = now + t.Timeouts.SynSent
	case c.State == StateSynRecv && !reply && tcpFlags&hdr.TCPAck != 0:
		c.State = StateEstablished
		c.expires = now + t.Timeouts.Established
	case c.State == StateEstablished:
		// Includes a retransmitted SYN on an established connection:
		// it refreshes the timeout but must not reset the state.
		c.expires = now + t.Timeouts.Established
	case c.State == StateFinWait || c.State == StateClosed:
		// Closing states keep the short timeout: the stray ACKs of a
		// simultaneous close must not pin the record for the SYN
		// timeout.
		c.expires = now + t.Timeouts.Fin
	default:
		c.expires = now + t.Timeouts.SynSent
	}
}

// applyNAT rewrites packet headers per the connection's translation,
// recomputing checksums — the real work OVS had to reimplement in
// userspace.
func (t *Table) applyNAT(p *packet.Packet, c *Conn, reply bool) {
	if c.NAT.Kind == NATNone {
		return
	}
	eth, err := hdr.ParseEthernet(p.Data)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return
	}
	ipRaw := p.Data[eth.HeaderLen:]
	ip, err := hdr.ParseIPv4(ipRaw)
	if err != nil {
		return
	}
	l4 := ipRaw[ip.HeaderLen:]

	// Forward direction applies the translation; the reply direction
	// undoes it, restoring the original endpoint.
	var rewriteSrc bool
	var newAddr hdr.IP4
	var newPort uint16
	switch {
	case c.NAT.Kind == SNAT && !reply:
		rewriteSrc, newAddr, newPort = true, c.NAT.Addr, c.NAT.Port
	case c.NAT.Kind == SNAT && reply:
		rewriteSrc, newAddr, newPort = false, c.Orig.SrcIP, c.Orig.SrcPort
	case c.NAT.Kind == DNAT && !reply:
		rewriteSrc, newAddr, newPort = false, c.NAT.Addr, c.NAT.Port
	default: // DNAT reply
		rewriteSrc, newAddr, newPort = true, c.Orig.DstIP, c.Orig.DstPort
	}
	if rewriteSrc {
		ip.Src = newAddr
	} else {
		ip.Dst = newAddr
	}
	hdr.RewriteIPv4(ipRaw, &ip)

	if newPort != 0 {
		switch ip.Proto {
		case hdr.IPProtoTCP, hdr.IPProtoUDP:
			if len(l4) >= 4 {
				portOff := 0
				if !rewriteSrc {
					portOff = 2
				}
				l4[portOff] = byte(newPort >> 8)
				l4[portOff+1] = byte(newPort)
			}
		}
	}
	switch ip.Proto {
	case hdr.IPProtoTCP:
		if len(l4) >= hdr.TCPMinSize {
			hdr.PutTCPChecksum(ip.Src, ip.Dst, l4)
		}
	case hdr.IPProtoUDP:
		if len(l4) >= hdr.UDPSize {
			hdr.PutUDPChecksum(ip.Src, ip.Dst, l4)
		}
	}
}

// install indexes the connection under both directions and threads it onto
// its zone's recency list. The reply direction accounts for NAT: replies
// arrive addressed to the translated tuple.
func (t *Table) install(c *Conn) {
	t.shardFor(c.Zone, c.Orig).conns[connKey{c.Zone, c.Orig}] = c
	rt := t.replyTuple(c)
	t.shardFor(c.Zone, rt).conns[connKey{c.Zone, rt}] = c
	c.zs.count++
	c.zs.lists[c.class].pushBack(c)
	t.live++
	t.armTimer(c)
}

// removeConn unlinks the connection from both shard indexes, its zone
// list, its NAT port pool, and its wheel timer, then recycles the record.
// The caller attributes the removal by bumping exactly one of the Expired,
// EarlyDrops, or Evicted counters.
func (t *Table) removeConn(c *Conn) {
	delete(t.shardFor(c.Zone, c.Orig).conns, connKey{c.Zone, c.Orig})
	rt := t.replyTuple(c)
	delete(t.shardFor(c.Zone, rt).conns, connKey{c.Zone, rt})
	c.zs.count--
	c.zs.lists[c.class].remove(c)
	t.live--
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.pool != nil {
		c.pool.release(c)
	}
	t.freeConn(c)
}

// allocConn takes a record off the free list, or allocates one.
func (t *Table) allocConn() *Conn {
	if c := t.free; c != nil {
		t.free = c.next
		c.next = nil
		return c
	}
	return &Conn{}
}

// freeConn resets a record (keeping its timer, whose closure is bound to
// the record pointer) and pushes it on the free list.
func (t *Table) freeConn(c *Conn) {
	timer := c.timer
	*c = Conn{timer: timer}
	c.next = t.free
	t.free = c
}

// replyTuple computes the tuple reply packets carry, after translation.
func (t *Table) replyTuple(c *Conn) Tuple {
	r := c.Orig.Reverse()
	switch c.NAT.Kind {
	case SNAT:
		r.DstIP = c.NAT.Addr
		if c.NAT.Port != 0 {
			r.DstPort = c.NAT.Port
		}
	case DNAT:
		r.SrcIP = c.NAT.Addr
		if c.NAT.Port != 0 {
			r.SrcPort = c.NAT.Port
		}
	}
	return r
}

// Counters is a snapshot of the tracker's global counters for stats
// surfaces (dpif.Stats, dpctl-stats).
type Counters struct {
	Conns            int
	Created          uint64
	Expired          uint64
	EarlyDrops       uint64
	Evicted          uint64
	TableFull        uint64
	NATExhausted     uint64
	NATPortEvictions uint64
	RelatedICMP      uint64
}

// Counters snapshots the global counters.
func (t *Table) Counters() Counters {
	return Counters{
		Conns:            t.live,
		Created:          t.Created,
		Expired:          t.Expired,
		EarlyDrops:       t.EarlyDrops,
		Evicted:          t.Evicted,
		TableFull:        t.LimitHits,
		NATExhausted:     t.NATExhausted,
		NATPortEvictions: t.NATPortEvictions,
		RelatedICMP:      t.RelatedICMP,
	}
}

// PressureRemovals returns early-drops plus evictions — the removals the
// datapath charges eviction cost for.
func (t *Table) PressureRemovals() uint64 { return t.EarlyDrops + t.Evicted }
