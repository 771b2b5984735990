package ofproto

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func keyWith(port uint32, dstPort uint16) flow.Key {
	return (&flow.Fields{
		InPort: port, EthSrc: macA, EthDst: macB, EthType: hdr.EtherTypeIPv4,
		IP4Src: hdr.MakeIP4(10, 0, 0, 1), IP4Dst: hdr.MakeIP4(10, 0, 0, 2),
		IPProto: hdr.IPProtoTCP, TPDst: dstPort,
	}).Pack()
}

func TestTablePriorityWins(t *testing.T) {
	tbl := NewTable(0)
	mWide := flow.NewMaskBuilder().EthType().Build()
	mNarrow := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	tbl.Insert(&Rule{Priority: 10, Match: NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, mWide),
		Actions: []Action{Output(1)}})
	tbl.Insert(&Rule{Priority: 100, Match: NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4,
		IPProto: hdr.IPProtoTCP, TPDst: 22}, mNarrow), Actions: []Action{Drop()}})

	r, _, _ := tbl.Lookup(keyWith(1, 22))
	if r == nil || r.Priority != 100 {
		t.Fatalf("ssh key matched %+v", r)
	}
	r, _, _ = tbl.Lookup(keyWith(1, 80))
	if r == nil || r.Priority != 10 {
		t.Fatalf("http key matched %+v", r)
	}
	if tbl.Len() != 2 || tbl.DistinctMasks() != 2 {
		t.Fatalf("len=%d masks=%d", tbl.Len(), tbl.DistinctMasks())
	}
}

func TestTableEarlyExitByPriority(t *testing.T) {
	tbl := NewTable(0)
	// High-priority subtable matches; the low-priority one must not be
	// probed.
	hi := flow.NewMaskBuilder().InPort().Build()
	lo := flow.NewMaskBuilder().EthType().Build()
	tbl.Insert(&Rule{Priority: 100, Match: NewMatch(flow.Fields{InPort: 1}, hi), Actions: []Action{Output(2)}})
	tbl.Insert(&Rule{Priority: 1, Match: NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, lo), Actions: []Action{Drop()}})
	_, _, probes := tbl.Lookup(keyWith(1, 80))
	if probes != 1 {
		t.Fatalf("probes = %d, want 1 (early exit)", probes)
	}
}

func TestTableReplaceSamePriority(t *testing.T) {
	tbl := NewTable(0)
	m := flow.NewMaskBuilder().InPort().Build()
	match := NewMatch(flow.Fields{InPort: 1}, m)
	tbl.Insert(&Rule{Priority: 5, Match: match, Actions: []Action{Output(1)}})
	tbl.Insert(&Rule{Priority: 5, Match: match, Actions: []Action{Output(9)}})
	if tbl.Len() != 1 {
		t.Fatalf("len = %d after replace", tbl.Len())
	}
	r, _, _ := tbl.Lookup(keyWith(1, 80))
	if r.Actions[0].Port != 9 {
		t.Fatal("replacement not effective")
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable(0)
	m := flow.NewMaskBuilder().InPort().Build()
	match := NewMatch(flow.Fields{InPort: 1}, m)
	tbl.Insert(&Rule{Priority: 5, Match: match, Actions: []Action{Output(1)}})
	if !tbl.Remove(match, 5) {
		t.Fatal("remove failed")
	}
	if tbl.Remove(match, 5) {
		t.Fatal("double remove must fail")
	}
	if tbl.Len() != 0 || tbl.DistinctMasks() != 0 {
		t.Fatal("empty subtable must be dropped")
	}
}

func TestTranslateSimpleForward(t *testing.T) {
	p := NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 10,
		Match: NewMatch(flow.Fields{InPort: 1}, m), Actions: []Action{Output(2)}})

	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 1 || mf.Actions.List()[0].Type != DPOutput || mf.Actions.List()[0].Port != 2 {
		t.Fatalf("actions = %v", mf.Actions.List())
	}
	// The megaflow must be wildcarded: it pins in_port (probed) but not
	// the TCP port (never examined).
	probe := flow.NewMaskBuilder().TPDst().Build()
	if mf.Mask.Covers(probe) {
		t.Fatal("megaflow must not pin unexamined fields")
	}
	inport := flow.NewMaskBuilder().InPort().Build()
	if !mf.Mask.Covers(inport) {
		t.Fatal("megaflow must pin the input port")
	}
	// A different flow on the same port must satisfy the same megaflow.
	other := keyWith(1, 443)
	if other.Apply(mf.Mask) != keyWith(1, 80).Apply(mf.Mask) {
		t.Fatal("wildcarding failed: same-decision flows must share the megaflow")
	}
}

func TestTranslateGotoChain(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mTCP := flow.NewMaskBuilder().IPProto().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn), Actions: []Action{GotoTable(10)}})
	p.AddRule(&Rule{TableID: 10, Priority: 1,
		Match: NewMatch(flow.Fields{IPProto: hdr.IPProtoTCP}, mTCP), Actions: []Action{Output(5)}})

	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 1 || mf.Actions.List()[0].Port != 5 {
		t.Fatalf("actions = %v", mf.Actions.List())
	}
	// Both tables' probes contribute to the mask.
	if !mf.Mask.Covers(mTCP) {
		t.Fatal("mask must include table 10's probe")
	}
}

func TestTranslateTableMissDrops(t *testing.T) {
	p := NewPipeline()
	p.Table(0) // empty table
	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 0 {
		t.Fatalf("miss actions = %v", mf.Actions.List())
	}
}

func TestTranslateCTStopsAndRegistersRecirc(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match:   NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []Action{CT(7, false, 20), Output(99)}})

	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 1 || mf.Actions.List()[0].Type != DPCT || mf.Actions.List()[0].Zone != 7 {
		t.Fatalf("actions = %v (output after ct must not leak into this pass)", mf.Actions.List())
	}
	recircID := mf.Actions.List()[0].RecircID
	if recircID == 0 {
		t.Fatal("recirc id not allocated")
	}
	if tbl, ok := p.RecircTable(recircID); !ok || tbl != 20 {
		t.Fatalf("recirc registry = %d,%v", tbl, ok)
	}

	// Second pass: a recirculated key translates from table 20.
	mEst := flow.NewMaskBuilder().CtState(0xff).Build()
	p.AddRule(&Rule{TableID: 20, Priority: 1,
		Match:   NewMatch(flow.Fields{CtState: 0x05}, mEst), // trk|est
		Actions: []Action{Output(3)}})
	f := keyWith(1, 80).Unpack()
	f.RecircID = recircID
	f.CtState = 0x05
	mf2, err := p.Translate(f.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf2.Actions.List()) != 1 || mf2.Actions.List()[0].Port != 3 {
		t.Fatalf("recirc pass actions = %v", mf2.Actions.List())
	}
}

func TestTranslateUnknownRecircFails(t *testing.T) {
	p := NewPipeline()
	f := keyWith(1, 80).Unpack()
	f.RecircID = 999
	if _, err := p.Translate(f.Pack()); err == nil {
		t.Fatal("unknown recirc id must fail translation")
	}
}

func TestTranslateGotoLoopBounded(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	// Table 0 -> table 0 forever.
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn), Actions: []Action{GotoTable(0)}})
	if _, err := p.Translate(keyWith(1, 80)); err == nil {
		t.Fatal("infinite goto chain must fail translation")
	}
}

func TestTranslateTunnelOutput(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []Action{
			SetTunnel(tunnelConfigForTest()),
			Output(100),
		}})
	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions.List()) != 2 || mf.Actions.List()[0].Type != DPTunnelPush || mf.Actions.List()[1].Type != DPOutput {
		t.Fatalf("actions = %v", mf.Actions.List())
	}
	if mf.Actions.List()[0].Tunnel.VNI != 4096 {
		t.Fatal("tunnel config lost")
	}
}

func TestTranslateVLANAndRewrites(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []Action{
			PopVLAN(), SetEthDst(macB), DecTTL(), PushVLAN(100, 0), Output(4),
		}})
	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	want := []DPActionType{DPPopVLAN, DPSetEthDst, DPDecTTL, DPPushVLAN, DPOutput}
	if len(mf.Actions.List()) != len(want) {
		t.Fatalf("actions = %v", mf.Actions.List())
	}
	for i, w := range want {
		if mf.Actions.List()[i].Type != w {
			t.Fatalf("action %d = %v, want %v", i, mf.Actions.List()[i], w)
		}
	}
	// DecTTL unwildcards the TTL; PopVLAN unwildcards the VLAN.
	if !mf.Mask.Covers(flow.NewMaskBuilder().IPTTL().Build()) {
		t.Fatal("dec_ttl must pin the TTL")
	}
	if !mf.Mask.Covers(flow.NewMaskBuilder().VLAN().Build()) {
		t.Fatal("pop_vlan must pin the VLAN")
	}
}

func TestMeterTokenBucket(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPipeline()
	p.SetMeter(1, &TokenBucket{RatePerSec: 1000, Burst: 10, PerPacket: true})

	// Burst of 10 passes, the 11th at t=0 drops.
	for i := 0; i < 10; i++ {
		if !p.MeterAllow(1, 64, eng.Now()) {
			t.Fatalf("packet %d should conform", i)
		}
	}
	if p.MeterAllow(1, 64, eng.Now()) {
		t.Fatal("burst exhausted: must drop")
	}
	// After 10ms, 10 more tokens accumulated.
	eng.Schedule(10*sim.Millisecond, func() {})
	eng.Run()
	allowed := 0
	for i := 0; i < 20; i++ {
		if p.MeterAllow(1, 64, eng.Now()) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("allowed %d after refill, want 10", allowed)
	}
	// Unknown meters pass everything.
	if !p.MeterAllow(99, 64, eng.Now()) {
		t.Fatal("unknown meter must allow")
	}
}

func TestPipelineCounts(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	for table := uint8(0); table < 5; table++ {
		for i := uint32(1); i <= 10; i++ {
			p.AddRule(&Rule{TableID: table, Priority: int(i),
				Match:   NewMatch(flow.Fields{InPort: i}, mIn),
				Actions: []Action{Output(i)}})
		}
	}
	if p.RuleCount() != 50 {
		t.Fatalf("rules = %d", p.RuleCount())
	}
	if p.TableCount() != 5 {
		t.Fatalf("tables = %d", p.TableCount())
	}
	if len(p.TableIDs()) != 5 {
		t.Fatal("table ids wrong")
	}
}

func tunnelConfigForTest() tunnel.Config {
	return tunnel.Config{Kind: tunnel.Geneve,
		LocalIP:  hdr.MakeIP4(172, 16, 0, 1),
		RemoteIP: hdr.MakeIP4(172, 16, 0, 2),
		VNI:      4096}
}

// forwardRule is a table-0 rule matching in_port 1 with the given actions.
func forwardRule(actions ...Action) *Rule {
	return &Rule{TableID: 0, Priority: 10,
		Match:   NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: actions}
}

func mustTranslate(t *testing.T, p *Pipeline, key flow.Key) Megaflow {
	t.Helper()
	mf, err := p.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// Translations through one rule share that rule's compiled list, which is
// full (cap == len) so a caller's append copies instead of writing into it.
func TestCompiledActionsAreShared(t *testing.T) {
	p := NewPipeline()
	p.AddRule(forwardRule(SetEthDst(macA), Output(2)))
	a := mustTranslate(t, p, keyWith(1, 80)).Actions.List()
	b := mustTranslate(t, p, keyWith(1, 443)).Actions.List()
	if len(a) != 2 || len(b) != 2 || &a[0] != &b[0] {
		t.Fatalf("translations do not share one list: %v at %p, %v at %p", a, a, b, b)
	}
	if cap(a) != len(a) {
		t.Fatalf("shared list has cap %d, len %d", cap(a), len(a))
	}
	grown := append(a, DPAction{Type: DPOutput, Port: 9})
	grown[0] = DPAction{Type: DPDecTTL}
	c := mustTranslate(t, p, keyWith(1, 80)).Actions.List()
	if len(c) != 2 || c[0].Type != DPSetEthDst || c[1].Port != 2 {
		t.Fatalf("a caller's append changed the next translation: %v", c)
	}
}

// A goto contributes no actions, so goto -> output yields the output
// rule's own list; two contributing rules concatenate into a new one.
func TestCompiledGotoChain(t *testing.T) {
	p := NewPipeline()
	p.AddRule(forwardRule(GotoTable(1)))
	out := &Rule{TableID: 1, Priority: 1, Match: MatchAny(), Actions: []Action{Output(2)}}
	p.AddRule(out)
	mf := mustTranslate(t, p, keyWith(1, 80))
	if got := mf.Actions.List(); len(got) != 1 || got[0].Port != 2 || mf.Actions != out.xlate.actions {
		t.Fatalf("goto -> output gave %v, want the output rule's own list", got)
	}

	p.AddRule(forwardRule(PushVLAN(7, 0), GotoTable(1)))
	got := mustTranslate(t, p, keyWith(1, 80)).Actions.List()
	if len(got) != 2 || got[0].Type != DPPushVLAN || got[1].Port != 2 {
		t.Fatalf("push_vlan, goto -> output gave %v", got)
	}
	if again := out.xlate.actions.List(); len(again) != 1 {
		t.Fatalf("concatenation changed the output rule's list: %v", again)
	}
}

// An explicit drop discards every action gathered so far, in its own rule
// or in earlier rules of the chain.
func TestCompiledDropResets(t *testing.T) {
	p := NewPipeline()
	p.AddRule(forwardRule(Output(2), Drop()))
	if mf := mustTranslate(t, p, keyWith(1, 80)); mf.Actions != nil {
		t.Fatalf("output, drop gave %v, want nil", mf.Actions)
	}
	p.AddRule(forwardRule(Output(2), GotoTable(1)))
	p.AddRule(&Rule{TableID: 1, Priority: 1, Match: MatchAny(), Actions: []Action{Drop()}})
	if mf := mustTranslate(t, p, keyWith(1, 80)); mf.Actions != nil {
		t.Fatalf("output, goto -> drop gave %v, want nil", mf.Actions)
	}
}

// A rule replaced through Table.Insert translates to its new actions,
// whether the replacement is a new rule or the same one re-inserted.
func TestCompiledRuleReplacement(t *testing.T) {
	p := NewPipeline()
	p.AddRule(forwardRule(Output(2)))
	mustTranslate(t, p, keyWith(1, 80))
	p.Table(0).Insert(forwardRule(Output(3)))
	if got := mustTranslate(t, p, keyWith(1, 80)).Actions.List(); len(got) != 1 || got[0].Port != 3 {
		t.Fatalf("after replacement: %v, want out(3)", got)
	}
	r := forwardRule(Output(4))
	p.Table(0).Insert(r)
	mustTranslate(t, p, keyWith(1, 80))
	r.Actions = []Action{Output(5)}
	p.Table(0).Insert(r)
	if got := mustTranslate(t, p, keyWith(1, 80)).Actions.List(); len(got) != 1 || got[0].Port != 5 {
		t.Fatalf("after re-inserting the edited rule: %v, want out(5)", got)
	}
}

// Translating through already compiled rules allocates nothing.
func TestTranslateCompiledDoesNotAllocate(t *testing.T) {
	p := NewPipeline()
	p.AddRule(forwardRule(GotoTable(1)))
	p.AddRule(&Rule{TableID: 1, Priority: 1, Match: MatchAny(), Actions: []Action{Output(2)}})
	key := keyWith(1, 80)
	mustTranslate(t, p, key)
	if allocs := testing.AllocsPerRun(100, func() { p.Translate(key) }); allocs != 0 {
		t.Fatalf("Translate allocated %.1f times per call, want 0", allocs)
	}
}
