package upcall

import (
	"errors"
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// fakeDP is a datapath over one classifier that records every call the
// handler makes into it.
type fakeDP struct {
	cls       *dpcls.Classifier
	reinjects []*packet.Packet
	reinjAt   []sim.Time
	reinjCPU  []*sim.CPU
	lost      int
	refused   int
	expired   []*dpcls.Entry
	eng       *sim.Engine
}

func (f *fakeDP) Lookup(key flow.Key) *dpcls.Entry {
	e, _ := f.cls.Lookup(key)
	return e
}

func (f *fakeDP) Install(key flow.Key, mask flow.Mask, actions any) *dpcls.Entry {
	return f.cls.Insert(key, mask, actions)
}

func (f *fakeDP) Expire(e *dpcls.Entry) {
	f.cls.Remove(e)
	f.expired = append(f.expired, e)
}

func (f *fakeDP) Reinject(cpu *sim.CPU, p *packet.Packet) {
	f.reinjects = append(f.reinjects, p)
	f.reinjAt = append(f.reinjAt, f.eng.Now())
	f.reinjCPU = append(f.reinjCPU, cpu)
}

func (f *fakeDP) Drop(_ *packet.Packet, lost bool) {
	if lost {
		f.lost++
	} else {
		f.refused++
	}
}

// transient is a retryable translation failure.
type transient struct{}

func (transient) Error() string   { return "slow path busy" }
func (transient) Transient() bool { return true }

type bed struct {
	eng   *sim.Engine
	cfg   Config
	s     *Slowpath
	dp    *fakeDP
	h     *Handler
	st    *perf.Stats
	cpu   *sim.CPU // the thread packets miss on
	calls int      // translator invocations
	fail  error    // returned by the translator while non-nil
}

func newBed(cfg Config) *bed {
	b := &bed{eng: sim.NewEngine(1), cfg: cfg, st: perf.NewStats()}
	b.cpu = b.eng.NewCPU("pmd0")
	b.dp = &fakeDP{cls: dpcls.New(1), eng: b.eng}
	b.s = New(b.eng, &b.cfg, ofproto.NewPipeline(), sim.System, "handler")
	b.s.SetTranslator(func(flow.Key) (ofproto.Megaflow, error) {
		b.calls++
		if b.fail != nil {
			return ofproto.Megaflow{}, b.fail
		}
		return ofproto.Megaflow{Mask: flow.MaskAll()}, nil
	})
	b.h = b.s.NewHandler(b.dp, b.st)
	return b
}

func key(n uint16) flow.Key {
	f := flow.Fields{InPort: 1, TPSrc: n}
	return f.Pack()
}

func (b *bed) handlerCPU() *sim.CPU {
	for _, c := range b.eng.CPUs() {
		if c.Name() == "handler" {
			return c
		}
	}
	return nil
}

func TestQueueCapAdmissionAndDrops(t *testing.T) {
	b := newBed(Config{QueueCap: 2})
	for i := 0; i < 5; i++ {
		if e := b.h.Miss(b.cpu, key(uint16(i)), packet.New(make([]byte, 64))); e != nil {
			t.Fatalf("queued miss %d returned an entry", i)
		}
	}
	if b.s.QueueDrops != 3 || b.st.UpcallQueueDrops != 3 || b.dp.refused != 3 {
		t.Fatalf("queue drops: slowpath %d perf %d refused %d, want 3/3/3",
			b.s.QueueDrops, b.st.UpcallQueueDrops, b.dp.refused)
	}
	if b.st.UpcallQueuePeak != 2 {
		t.Fatalf("queue peak = %d, want 2", b.st.UpcallQueuePeak)
	}
	if b.cpu.BusyTotal() != 0 {
		t.Fatalf("admission charged the missing thread %v", b.cpu.BusyTotal())
	}
	b.eng.Run()
	if len(b.dp.reinjects) != 2 || b.dp.lost != 0 || b.calls != 2 {
		t.Fatalf("after service: reinjected %d lost %d translations %d, want 2/0/2",
			len(b.dp.reinjects), b.dp.lost, b.calls)
	}
	// The queue has room again.
	b.h.Miss(b.cpu, key(9), packet.New(make([]byte, 64)))
	if b.s.QueueDrops != 3 {
		t.Fatalf("drained queue refused a packet: drops %d", b.s.QueueDrops)
	}
}

func TestFIFOServiceSpacing(t *testing.T) {
	const interval = 20 * sim.Microsecond
	b := newBed(Config{QueueCap: 8, ServiceInterval: interval})
	var pkts []*packet.Packet
	for i := 0; i < 3; i++ {
		p := packet.New(make([]byte, 64))
		pkts = append(pkts, p)
		b.h.Miss(b.cpu, key(uint16(i)), p)
	}
	b.eng.Run()
	if len(b.dp.reinjects) != 3 {
		t.Fatalf("reinjected %d, want 3", len(b.dp.reinjects))
	}
	for i, p := range b.dp.reinjects {
		if p != pkts[i] {
			t.Fatalf("reinjection %d out of FIFO order", i)
		}
		if want := sim.Time(i+1) * interval; b.dp.reinjAt[i] != want {
			t.Fatalf("reinjection %d at %v, want %v", i, b.dp.reinjAt[i], want)
		}
		if b.dp.reinjCPU[i] != b.cpu {
			t.Fatalf("reinjection %d on %v, want the missing thread", i, b.dp.reinjCPU[i])
		}
	}
	hc := b.handlerCPU()
	if hc == nil || hc.Busy(sim.System) != 3*costmodel.UpcallCost || hc.BusyTotal() != hc.Busy(sim.System) {
		t.Fatalf("handler CPU %v: want 3 upcalls charged as system time", hc)
	}
	if b.st.Cycles[perf.StageUpcall] != 3*costmodel.UpcallCost || b.st.Upcalls != 3 {
		t.Fatalf("perf: upcall cycles %v count %d, want 3 upcalls",
			b.st.Cycles[perf.StageUpcall], b.st.Upcalls)
	}
}

func TestDefaultServiceInterval(t *testing.T) {
	b := newBed(Config{QueueCap: 1})
	b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64)))
	b.eng.Run()
	if len(b.dp.reinjAt) != 1 || b.dp.reinjAt[0] != costmodel.UpcallCost {
		t.Fatalf("reinjected at %v, want one at UpcallCost", b.dp.reinjAt)
	}
}

func TestDedupReprobe(t *testing.T) {
	b := newBed(Config{QueueCap: 8})
	for i := 0; i < 4; i++ {
		b.h.Miss(b.cpu, key(7), packet.New(make([]byte, 64)))
	}
	b.eng.Run()
	if b.calls != 1 {
		t.Fatalf("translations = %d, want 1 for a burst of one flow", b.calls)
	}
	if len(b.dp.reinjects) != 4 || b.dp.cls.Len() != 1 {
		t.Fatalf("reinjected %d flows %d, want 4/1", len(b.dp.reinjects), b.dp.cls.Len())
	}
	if hc := b.handlerCPU(); hc.BusyTotal() != costmodel.UpcallCost {
		t.Fatalf("handler busy %v, want one translation", hc.BusyTotal())
	}
}

func TestRetryBudget(t *testing.T) {
	b := newBed(Config{QueueCap: 4, MaxRetries: 2, RetryBase: 5 * sim.Microsecond})
	b.fail = transient{}
	b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64)))
	b.eng.RunUntil(sim.Millisecond)
	if b.s.Retries != 2 || b.s.Errors != 1 || b.calls != 3 {
		t.Fatalf("retries %d errors %d translations %d, want 2/1/3",
			b.s.Retries, b.s.Errors, b.calls)
	}
	if b.dp.lost != 1 || len(b.dp.reinjects) != 0 || b.st.Upcalls != 1 {
		t.Fatalf("lost %d reinjected %d upcalls %d, want 1/0/1",
			b.dp.lost, len(b.dp.reinjects), b.st.Upcalls)
	}

	// A failure that is not transient is not retried.
	b = newBed(Config{QueueCap: 4})
	b.fail = errors.New("no route")
	b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64)))
	b.eng.RunUntil(sim.Millisecond)
	if b.s.Retries != 0 || b.s.Errors != 1 || b.calls != 1 {
		t.Fatalf("hard failure: retries %d errors %d translations %d, want 0/1/1",
			b.s.Retries, b.s.Errors, b.calls)
	}

	// A transient failure that clears within the budget resolves.
	b = newBed(Config{QueueCap: 4, MaxRetries: 3})
	b.fail = transient{}
	b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64)))
	b.eng.RunUntil(costmodel.UpcallCost + 1)
	b.fail = nil
	b.eng.RunUntil(sim.Millisecond)
	if b.s.Retries != 1 || b.s.Errors != 0 || len(b.dp.reinjects) != 1 {
		t.Fatalf("recovered: retries %d errors %d reinjected %d, want 1/0/1",
			b.s.Retries, b.s.Errors, len(b.dp.reinjects))
	}
}

func TestNegativeFlowExpiry(t *testing.T) {
	const ttl = sim.Millisecond
	b := newBed(Config{NegativeFlowTTL: ttl})
	b.fail = errors.New("slow path down")
	if e := b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64))); e != nil {
		t.Fatal("failed inline upcall returned an entry")
	}
	if b.s.Errors != 1 || b.dp.lost != 1 {
		t.Fatalf("errors %d lost %d, want 1/1", b.s.Errors, b.dp.lost)
	}
	if b.cpu.Busy(sim.System) != costmodel.UpcallCost {
		t.Fatalf("inline upcall charged %v to the missing thread, want UpcallCost", b.cpu.Busy(sim.System))
	}
	neg := b.dp.Lookup(key(1))
	if neg == nil || neg.Actions != nil || neg.Mask != flow.MaskAll() {
		t.Fatalf("negative flow = %+v, want an exact-match entry with no actions", neg)
	}
	b.eng.RunUntil(ttl - 1)
	if len(b.dp.expired) != 0 {
		t.Fatal("negative flow expired early")
	}
	b.eng.RunUntil(ttl)
	if len(b.dp.expired) != 1 || b.dp.expired[0] != neg || b.dp.cls.Len() != 0 {
		t.Fatalf("negative flow not expired at its TTL: expired %d flows %d",
			len(b.dp.expired), b.dp.cls.Len())
	}

	// A zero TTL installs no negative flow.
	b = newBed(Config{})
	b.fail = errors.New("slow path down")
	b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64)))
	if b.dp.cls.Len() != 0 || b.eng.Pending() != 0 {
		t.Fatalf("TTL 0: flows %d pending events %d, want none", b.dp.cls.Len(), b.eng.Pending())
	}
}

func TestInlineInstallsOnTheMissingThread(t *testing.T) {
	b := newBed(Config{})
	e := b.h.Miss(b.cpu, key(1), packet.New(make([]byte, 64)))
	if e == nil || b.dp.Lookup(key(1)) != e {
		t.Fatal("inline upcall did not install and return the flow")
	}
	if b.cpu.Busy(sim.System) != costmodel.UpcallCost || b.handlerCPU() != nil {
		t.Fatal("inline upcall must charge the missing thread and create no handler thread")
	}
	if b.st.Upcalls != 1 || b.eng.Pending() != 0 {
		t.Fatalf("upcalls %d pending %d, want 1/0", b.st.Upcalls, b.eng.Pending())
	}
}

// countingDP is a datapath whose flow table never learns, so every packet
// takes the full queued path; it allocates nothing itself.
type countingDP struct {
	entry     dpcls.Entry
	reinjects int
}

func (c *countingDP) Lookup(flow.Key) *dpcls.Entry                  { return nil }
func (c *countingDP) Install(flow.Key, flow.Mask, any) *dpcls.Entry { return &c.entry }
func (c *countingDP) Expire(*dpcls.Entry)                           {}
func (c *countingDP) Reinject(*sim.CPU, *packet.Packet)             { c.reinjects++ }
func (c *countingDP) Drop(*packet.Packet, bool)                     {}

func TestQueuedServiceZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Config{QueueCap: 16}
	s := New(eng, &cfg, ofproto.NewPipeline(), sim.User, "handler")
	mf := ofproto.Megaflow{Mask: flow.MaskAll()}
	s.SetTranslator(func(flow.Key) (ofproto.Megaflow, error) { return mf, nil })
	dp := &countingDP{}
	h := s.NewHandler(dp, perf.NewStats())
	cpu := eng.NewCPU("pmd0")
	p := packet.New(make([]byte, 64))
	var keys [8]flow.Key
	for i := range keys {
		keys[i] = key(uint16(i))
	}
	burst := func() {
		for _, k := range keys {
			h.Miss(cpu, k, p)
		}
		eng.RunUntil(eng.Now() + 10*costmodel.UpcallCost)
	}
	burst() // grow the ring, the free list and the event slab
	if avg := testing.AllocsPerRun(50, burst); avg != 0 {
		t.Fatalf("queued service allocates %.2f per burst, want 0", avg)
	}
	if dp.reinjects != 8*52 {
		t.Fatalf("reinjected %d, want %d", dp.reinjects, 8*52)
	}
}
