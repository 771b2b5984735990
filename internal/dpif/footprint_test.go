package dpif_test

import (
	"runtime"
	"testing"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// twoMaskPipeline sends UDP to port 2 through one of two tables, picked by
// the destination port. Each table's deny rule never matches, but probing
// it un-wildcards the source address (and in table 1 the source port), so
// every flow gets its own megaflow, in one of two masks.
func twoMaskPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	branch := flow.NewMaskBuilder().InPort().EthType().IPProto().TPDst().Build()
	for tbl := uint8(1); tbl <= 2; tbl++ {
		dport := 2000 + uint16(tbl)
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 100,
			Match: ofproto.NewMatch(flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4,
				IPProto: hdr.IPProtoUDP, TPDst: dport}, branch),
			Actions: []ofproto.Action{ofproto.GotoTable(tbl)}})
		deny := flow.NewMaskBuilder().EthType().IPProto().IP4Src(32).TPDst()
		if tbl == 1 {
			deny = deny.TPSrc()
		}
		pl.AddRule(&ofproto.Rule{TableID: tbl, Priority: 200,
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP,
				IP4Src: hdr.MakeIP4(192, 168, 0, 1), TPSrc: 1, TPDst: dport}, deny.Build()),
			Actions: []ofproto.Action{ofproto.Drop()}})
		pl.AddRule(&ofproto.Rule{TableID: tbl, Priority: 10,
			Match: ofproto.MatchAny(), Actions: []ofproto.Action{ofproto.Output(2)}})
	}
	return pl
}

// TestMegaflowFootprint installs 100,000 megaflows over two masks, each
// translated by Pipeline.Translate and installed with FlowPut as an upcall
// would, and bounds the live heap they hold: the classifier entry, its
// slot, and nothing for the actions, which every megaflow shares with the
// rule that produced them. Removing all but one must give the subtables'
// slot arrays back.
func TestMegaflowFootprint(t *testing.T) {
	const flows = 100_000
	eng := sim.NewEngine(1)
	pl := twoMaskPipeline()
	d, err := dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: pl})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p2", Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("PortAdd: %v", err)
	}
	keys := make([]flow.Key, flows+1)
	for i := range keys {
		keys[i] = (&flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP,
			IP4Src: hdr.IP4(10<<24 | uint32(i)), IP4Dst: hdr.MakeIP4(172, 16, 0, 1),
			TPSrc: uint16(1024 + i%60000), TPDst: 2001 + uint16(i&1)}).Pack()
	}
	put := func(k flow.Key) {
		mf, err := pl.Translate(k)
		if err != nil {
			t.Fatalf("Translate: %v", err)
		}
		d.FlowPut(k, mf.Mask, mf.Actions)
	}
	// The first install builds the PMD and its caches and compiles the
	// rules; the rest is what each further megaflow costs.
	put(keys[flows])
	base := liveHeap()
	for _, k := range keys[:flows] {
		put(k)
	}
	perFlow := float64(liveHeap()-base) / flows
	t.Logf("%d megaflows hold %.0f live heap bytes each", flows, perFlow)
	if perFlow > 256 {
		t.Errorf("%d megaflows hold %.0f live heap bytes each, want at most 256", flows, perFlow)
	}
	if n := d.Stats().Flows; n != flows+1 {
		t.Fatalf("flows = %d, want %d", n, flows+1)
	}

	dump := d.FlowDump()
	for _, f := range dump[1:] {
		if !d.FlowDel(f) {
			t.Fatal("FlowDel of a dumped flow failed")
		}
	}
	dump = nil
	if left := liveHeap() - base; left > 64<<10 {
		t.Errorf("one megaflow left holds %d more live heap bytes than before the fill, want the slot arrays shrunk (at most 64 KiB)", left)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(d)
}
