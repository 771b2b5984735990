package core

import (
	"fmt"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/emc"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/smc"
	"ovsxdp/internal/upcall"
)

// Mode selects how a packet-processing thread is driven.
type Mode int

// Thread modes.
const (
	// ModePoll is optimization O1: a dedicated PMD thread busy-polls its
	// receive queues.
	ModePoll Mode = iota
	// ModeNonPMD is the pre-O1 behaviour: the shared main thread
	// interleaves packet work with OpenFlow/OVSDB processing, paying a
	// poll()-and-wakeup gap around every batch.
	ModeNonPMD
	// ModeInterrupt sleeps until a queue signals packets (Figure 8a's
	// "interrupt" configuration): no busy-poll CPU burn, but a wakeup
	// cost per burst and none of the batching benefits at low rates.
	ModeInterrupt
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePoll:
		return "pmd-poll"
	case ModeNonPMD:
		return "non-pmd"
	default:
		return "interrupt"
	}
}

// RxQueue names one (port, queue) a PMD polls.
type RxQueue struct {
	Port  Port
	Queue int
}

// PMD is one poll-mode-driver thread: a dedicated CPU, its assigned
// receive queues, and its private exact-match cache and megaflow
// classifier (per-PMD, lockless, exactly as dpif-netdev partitions them).
type PMD struct {
	ID  int
	CPU *sim.CPU
	dp  *Datapath

	emc *emc.Cache[*dpcls.Entry]
	// smc is the signature match cache, allocated only when Options.SMC
	// is set (it is ~4 MB per PMD at the OVS-default capacity).
	smc *smc.Cache
	cls *dpcls.Classifier
	// rxqs is the thread's poll list; the entries are owned by the
	// datapath's assignment layer, which also meters each queue's cycle
	// consumption for the cycles policy and the auto-load-balancer.
	rxqs []*rxqState
	mode Mode

	// insRand drives probabilistic EMC insertion (emc-insert-inv-prob).
	// It is seeded from the PMD id alone — never from the engine's RNG
	// stream, whose draw order calibrated experiments depend on — and is
	// only consulted when EMCInsertInvProb > 1, so default runs stay
	// byte-identical.
	insRand *sim.Rand

	// batchKeys / batchLeaders / batchGroupOf are scratch buffers for
	// batch-aware classification, reused across iterations so the batch
	// path allocates nothing in steady state.
	batchKeys    []flow.Key
	batchLeaders []int
	batchGroupOf []int
	// lastLevel is the cache level the most recent lookupHierarchy call
	// resolved at; the batch path uses it to attribute follower packets.
	lastLevel perf.Result

	running bool
	stopped bool
	active  bool // has seen work; feeds the contention count
	// touched lists ports with batched transmissions pending flush, in
	// first-touch order — a deterministic flush sequence, where ranging
	// over a map would reorder costs run to run. Dedup is a linear scan:
	// a PMD touches a handful of ports per iteration at most.
	touched []Port

	// iterTimer rearms the iterate loop. It binds the method value once,
	// so rescheduling every iteration allocates nothing.
	iterTimer *sim.Timer

	// upcalls is the thread's upcall queue on the datapath's slow path.
	upcalls *upcall.Handler

	// Perf is the thread's performance-counter block (dpif-netdev-perf):
	// virtual cycles bucketed by stage, batch and upcall histograms, and
	// the optional packet-lifecycle trace. Pure accounting — recording
	// never perturbs virtual time.
	Perf *perf.Stats
	// trace, while non-nil, is the lifecycle record of the depth-0 packet
	// currently in processOne; lookup and action code fill it in.
	trace *perf.TraceRecord

	// Stats.
	Iterations uint64
	RxPackets  uint64
	// IdleTime accumulates busy-poll time spent on empty iterations, so
	// experiments can separate useful work from the idle spin that makes
	// a PMD CPU always-100%.
	IdleTime sim.Time
}

// NewPMD creates a PMD on the datapath. Each PMD gets its own CPU unless
// cpu is non-nil.
func (d *Datapath) NewPMD(mode Mode, cpu *sim.CPU) *PMD {
	id := len(d.pmds)
	if cpu == nil {
		cpu = d.Eng.NewCPU(fmt.Sprintf("pmd%d", id))
	}
	m := &PMD{
		ID:      id,
		CPU:     cpu,
		dp:      d,
		emc:     emc.New[*dpcls.Entry](costmodel.EMCEntries, uint32(id)*0x9e37+1),
		cls:     dpcls.New(uint32(id)*0x79b9 + 7),
		mode:    mode,
		Perf:    perf.NewStats(),
		insRand: sim.NewRand(0x51c0ffee ^ uint64(id)<<20),
	}
	m.emc.SetAliveCheck(entryAlive)
	if d.flowHook != nil {
		d.wireFlowHook(m)
	}
	m.iterTimer = d.Eng.NewTimer(m.iterate)
	m.upcalls = d.Slowpath.NewHandler(pmdSlowpath{m}, m.Perf)
	if d.Opts.SMC {
		entries := d.Opts.SMCEntries
		if entries <= 0 {
			entries = costmodel.SMCEntries
		}
		m.smc = smc.New(entries, uint32(id)*0x85eb+3)
	}
	if d.traceDepth > 0 {
		m.Perf.EnableTrace(d.traceDepth)
	}
	d.pmds = append(d.pmds, m)
	return m
}

// charge consumes d in the User category on the PMD's CPU and attributes
// the same amount to a perf stage — the one instrumentation point that
// keeps counters and virtual time in lockstep.
func (m *PMD) charge(st perf.Stage, d sim.Time) {
	m.CPU.Consume(sim.User, d)
	m.Perf.Add(st, d)
}

// reconfigureSMC brings the thread's signature cache in line with the
// datapath's current Options: allocated while SMC is on, released when off.
func (m *PMD) reconfigureSMC() {
	if !m.dp.Opts.SMC {
		m.smc = nil
		return
	}
	if m.smc == nil {
		entries := m.dp.Opts.SMCEntries
		if entries <= 0 {
			entries = costmodel.SMCEntries
		}
		m.smc = smc.New(entries, uint32(m.ID)*0x85eb+3)
	}
}

// EMCStats exposes cache hit counters for experiments.
func (m *PMD) EMCStats() (hits, misses uint64) { return m.emc.Hits, m.emc.Misses }

// SMCStats exposes signature-cache hit counters for experiments; both are
// zero when the SMC is disabled.
func (m *PMD) SMCStats() (hits, misses uint64) {
	if m.smc == nil {
		return 0, 0
	}
	return m.smc.Hits, m.smc.Misses
}

// Classifier exposes the megaflow classifier (tests, flow dumping).
func (m *PMD) Classifier() *dpcls.Classifier { return m.cls }

// entryAlive is the EMC's liveness predicate: a megaflow removed from the
// classifier is marked dead, and its cache entries purge lazily on their
// next lookup (emc_entry_alive). A package-level function, so every PMD
// shares one value and wiring it allocates nothing.
func entryAlive(e *dpcls.Entry) bool { return !e.Dead() }

// FlushEMC drops the thread's exact-match cache wholesale. This is the
// flow-table-wide reset (FlowFlush, daemon restart); single-megaflow
// deletion uses InvalidateEMC instead, which leaves unrelated cache
// entries untouched.
func (m *PMD) FlushEMC() { m.emc.Flush() }

// InvalidateEMC unlinks a removed megaflow from the exact-match cache —
// the EMC counterpart of InvalidateSMC. A megaflow covers arbitrarily many
// exact keys, so its EMC entries cannot be found by key; instead the entry
// is marked dead and the cache's alive check purges each stale slot on its
// next lookup, O(1) per delete instead of O(cache) — the fix for the
// churn-collapsing full flush FlowDel used to do.
func (m *PMD) InvalidateEMC(e *dpcls.Entry) { e.MarkDead() }

// InvalidateSMC unlinks a removed megaflow from the signature cache's
// indirection table (megaflow delete, revalidator sweep, negative-flow
// expiry), so stale signatures miss instead of mis-delivering.
func (m *PMD) InvalidateSMC(e *dpcls.Entry) {
	if m.smc != nil {
		m.smc.Invalidate(e)
	}
}

// emcInsert inserts into the EMC, subject to the configured inverse
// insertion probability. Values <= 1 insert always and draw no randomness.
func (m *PMD) emcInsert(key flow.Key, e *dpcls.Entry) {
	if !m.dp.Opts.EMC {
		return
	}
	if p := m.dp.Opts.EMCInsertInvProb; p > 1 && m.insRand.Uint32()%uint32(p) != 0 {
		return
	}
	m.emc.Insert(key, e)
}

// cacheInsert back-fills the fast caches after a dpcls hit or upcall
// install: the EMC probabilistically, the SMC (when enabled) always — the
// SMC is what keeps high-flow-count workloads out of the classifier once
// the EMC saturates.
func (m *PMD) cacheInsert(key flow.Key, e *dpcls.Entry) {
	m.emcInsert(key, e)
	if m.smc != nil {
		m.charge(perf.StageSMC, costmodel.SMCInsert)
		m.smc.Insert(key, e)
	}
}

// Start launches the thread's loop.
func (m *PMD) Start() {
	m.stopped = false
	switch m.mode {
	case ModeInterrupt:
		m.armAll()
	default:
		m.wake()
	}
}

// Stop halts the loop after the current iteration.
func (m *PMD) Stop() { m.stopped = true }

func (m *PMD) wake() {
	if m.running || m.stopped {
		return
	}
	m.running = true
	m.iterTimer.Schedule(0)
}

func (m *PMD) armAll() {
	for _, st := range m.rxqs {
		st.rxq.Port.Arm(st.rxq.Queue, m.onInterrupt)
	}
}

func (m *PMD) onInterrupt() {
	if m.running || m.stopped {
		return
	}
	// Wakeup: context switch into the blocked thread.
	m.charge(perf.StageRx, costmodel.InterruptModeWakeup)
	m.running = true
	m.iterTimer.ScheduleAt(m.CPU.FreeAt())
}

// iterate is one pass over the assigned receive queues.
func (m *PMD) iterate() {
	if m.stopped {
		m.running = false
		return
	}
	m.Iterations++
	m.Perf.AddIteration()
	batch := m.dp.Opts.BatchSize
	work := 0
	busyBefore := m.CPU.BusyTotal()
	for _, st := range m.rxqs {
		rxq := st.rxq
		rxBefore := m.CPU.BusyTotal()
		pkts := rxq.Port.Rx(m.CPU, rxq.Queue, batch)
		m.Perf.Add(perf.StageRx, m.CPU.BusyTotal()-rxBefore)
		if len(pkts) == 0 {
			continue
		}
		work += len(pkts)
		m.RxPackets += uint64(len(pkts))
		m.Perf.AddBatch(len(pkts))
		if m.mode == ModeNonPMD {
			// The shared thread pays the poll()/wakeup gap around
			// each batch (Table 2's 0.8 vs 4.8 Mpps).
			m.charge(perf.StageRx, costmodel.NonPMDPollGap)
		}
		m.dp.processBatch(m, pkts)
		// Meter the queue's cycle share (receive through actions) for
		// the cycles assignment policy and the auto-load-balancer.
		// Pure accounting: the cycles were already charged above.
		spent := m.CPU.BusyTotal() - rxBefore
		st.intervalCycles += spent
		st.totalCycles += spent
	}
	if work > 0 {
		if !m.active {
			m.active = true
			m.dp.activePMDs++
		}
		// Multi-PMD contention: shared cache and memory bandwidth
		// inflate per-packet costs as more threads run hot
		// (Figure 12's sub-linear 64B scaling).
		if k := m.dp.Opts.ContentionCentis; k > 0 && m.dp.activePMDs > 1 {
			milli := costmodel.UserContentionMilli(m.dp.activePMDs, k)
			extra := (m.CPU.BusyTotal() - busyBefore) * sim.Time(milli-1000) / 1000
			if extra > 0 {
				m.CPU.Consume(sim.User, extra)
			}
		}
	}
	// Flush batched transmissions on every port this iteration touched,
	// in first-touch order. A shared tx queue (XPS: more PMDs than the
	// port has txqs) pays the batched spinlock once per flush here; the
	// per-packet mutex alternative is charged in transmit.
	flushBefore := m.CPU.BusyTotal()
	for _, port := range m.touched {
		if m.dp.txqContended(port) && !m.dp.Opts.TxLockMutex {
			m.CPU.Consume(sim.User, costmodel.XPSTxSpinPerFlush)
			m.Perf.TxLockCycles += costmodel.XPSTxSpinPerFlush
		}
		port.Flush(m.CPU, m.dp.TxqFor(m, port))
	}
	m.touched = m.touched[:0]
	m.Perf.Add(perf.StageActions, m.CPU.BusyTotal()-flushBefore)

	switch {
	case m.mode == ModeInterrupt && work == 0:
		// Sleep until a queue signals.
		m.running = false
		m.armAll()
	default:
		if work == 0 {
			m.charge(perf.StageIdle, costmodel.PollIdleIteration)
			m.IdleTime += costmodel.PollIdleIteration
		}
		next := m.CPU.FreeAt()
		if now := m.dp.Eng.Now(); next < now {
			next = now
		}
		m.iterTimer.ScheduleAt(next)
	}
}

func (m *PMD) touch(p Port) {
	for _, q := range m.touched {
		if q == p {
			return
		}
	}
	m.touched = append(m.touched, p)
}

// pmdSlowpath is what a PMD supplies to its upcall handler: its own
// megaflow classifier, with the EMC, SMC and hardware entries layered over
// it, and its own fast path for reinjection.
type pmdSlowpath struct{ m *PMD }

func (a pmdSlowpath) Lookup(key flow.Key) *dpcls.Entry {
	e, _ := a.m.cls.Lookup(key)
	return e
}

func (a pmdSlowpath) Install(key flow.Key, mask flow.Mask, actions any) *dpcls.Entry {
	return a.m.cls.Insert(key, mask, actions)
}

func (a pmdSlowpath) Expire(e *dpcls.Entry) {
	if a.m.cls.Remove(e) {
		a.m.InvalidateEMC(e)
		a.m.InvalidateSMC(e)
		a.m.dp.OffloadUninstall(e)
	}
}

func (a pmdSlowpath) Reinject(_ *sim.CPU, p *packet.Packet) {
	a.m.dp.processCounted(a.m, p, 0, false)
}

func (a pmdSlowpath) Drop(p *packet.Packet, lost bool) {
	if lost {
		a.m.dp.Drops++
	}
	p.Release()
}
