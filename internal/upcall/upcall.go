// Package upcall is the slow path both datapath models share, as
// ofproto-dpif-upcall serves dpif-netdev and dpif-netlink alike. A packet
// that misses every flow-table level is translated inline on the thread
// that missed (QueueCap == 0, dpif-netdev's PMD upcall), or parks in a
// bounded FIFO — the netlink socket buffer whose overflow is ENOBUFS —
// that a handler thread serves: it re-probes the flow table, retries
// transient failures with seeded backoff, installs the megaflow or a
// short-lived negative flow, and reinjects the packet where it arrived.
// Each datapath supplies its flow table and packet path as a Datapath.
package upcall

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Config is the slow-path tuning, one field per other_config key. Zero
// durations and counts select the defaults noted per field.
type Config struct {
	// QueueCap bounds each handler's queue of packets awaiting
	// translation (upcall-queue-cap). Zero translates inline on the
	// thread that missed.
	QueueCap int
	// ServiceInterval is the handler's per-upcall service time when the
	// queue is bounded (upcall-service-us); zero means
	// costmodel.UpcallCost.
	ServiceInterval sim.Time
	// RetryBase seeds the exponential backoff applied when translation
	// fails transiently (upcall-retry-base-us); zero means UpcallCost/4.
	RetryBase sim.Time
	// MaxRetries bounds backoff retries of one upcall
	// (upcall-max-retries); zero means 3.
	MaxRetries int
	// NegativeFlowTTL is the lifetime of the drop flow installed when an
	// upcall fails for good (negative-flow-ttl-us); <= 0 installs none.
	NegativeFlowTTL sim.Time
}

// DefaultConfig is the configuration both datapaths start with: inline
// upcalls, and negative flows that live costmodel.NegativeFlowTTL.
func DefaultConfig() Config {
	return Config{NegativeFlowTTL: costmodel.NegativeFlowTTL}
}

// resolved returns c with its zero service interval, retry base and retry
// budget replaced by their defaults.
func (c Config) resolved() Config {
	if c.ServiceInterval <= 0 {
		c.ServiceInterval = costmodel.UpcallCost
	}
	if c.RetryBase <= 0 {
		c.RetryBase = costmodel.UpcallCost / 4
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	return c
}

// Datapath is what a datapath model supplies to its handlers.
type Datapath interface {
	// Lookup probes the datapath's flow table (the handler's dedup
	// re-probe before translating).
	Lookup(key flow.Key) *dpcls.Entry
	// Install inserts a flow into the datapath's flow table.
	Install(key flow.Key, mask flow.Mask, actions any) *dpcls.Entry
	// Expire removes an expired negative flow, together with any cache
	// state the datapath keeps over its flow table.
	Expire(e *dpcls.Entry)
	// Reinject runs a parked packet whose flow is now installed back
	// through the fast path on cpu, the thread it missed on, without
	// counting its admission again.
	Reinject(cpu *sim.CPU, p *packet.Packet)
	// Drop disposes of a packet the slow path gives up on. lost is set
	// when its translation failed for good, which the datapath counts as
	// a drop; a packet refused by a full queue is counted in QueueDrops.
	Drop(p *packet.Packet, lost bool)
}

// Slowpath is the state every handler of one datapath shares: its
// configuration, translator, counters and handler thread.
type Slowpath struct {
	// Errors counts translations that failed for good.
	Errors uint64
	// QueueDrops counts packets refused because a handler's queue was
	// full (the ENOBUFS analog); the datapath does not count them as
	// drops.
	QueueDrops uint64
	// Retries counts backoff retries of transient translation failures.
	Retries uint64

	eng      *sim.Engine
	cfg      *Config
	pipeline *ofproto.Pipeline
	// translator, when set, replaces pipeline.Translate (dpif upcall
	// registration).
	translator func(flow.Key) (ofproto.Megaflow, error)
	// cat is the CPU category upcall work is charged to; cpuName names
	// the handler thread, created on its first translation.
	cat     sim.Category
	cpuName string
	cpu     *sim.CPU
}

// New builds the slow path of one datapath. cfg is the datapath's own
// configuration and is read live, so later changes to it take effect on
// the next upcall. Upcall work is charged in category cat; queued upcalls
// are translated on a handler CPU named cpuName.
func New(eng *sim.Engine, cfg *Config, pl *ofproto.Pipeline, cat sim.Category, cpuName string) *Slowpath {
	return &Slowpath{eng: eng, cfg: cfg, pipeline: pl, cat: cat, cpuName: cpuName}
}

// SetTranslator registers the function consulted on misses in place of the
// pipeline's translator (dpif upcall registration); nil restores the
// pipeline.
func (s *Slowpath) SetTranslator(fn func(flow.Key) (ofproto.Megaflow, error)) {
	s.translator = fn
}

func (s *Slowpath) translate(key flow.Key) (ofproto.Megaflow, error) {
	if s.translator != nil {
		return s.translator(key)
	}
	return s.pipeline.Translate(key)
}

// pending is one packet parked in a handler's queue.
type pending struct {
	key     flow.Key
	pkt     *packet.Packet
	cpu     *sim.CPU // the thread the packet missed on
	enq     sim.Time // admission time, for upcall latency accounting
	attempt int      // backoff retries consumed so far
}

// Handler is one upcall queue and the service loop that drains it. Its
// upcall counters and latencies land in the perf block it was built with.
type Handler struct {
	s    *Slowpath
	dp   Datapath
	perf *perf.Stats

	// q is the FIFO of parked upcalls. It is short (at most QueueCap plus
	// retries in flight), so service shifts it down instead of keeping a
	// ring, and once grown it never allocates again.
	q []pending
	// busy is set while a service event is in flight; timer arms it.
	busy  bool
	timer *sim.Timer
	// requeue and expire are bound once, so scheduling a retry or a
	// negative flow's expiry allocates no closure.
	requeue func(any)
	expire  func(any)
}

// NewHandler adds a queue served on the slow path's handler thread.
func (s *Slowpath) NewHandler(dp Datapath, st *perf.Stats) *Handler {
	h := &Handler{s: s, dp: dp, perf: st}
	h.timer = s.eng.NewTimer(h.service)
	h.requeue = func(arg any) {
		// Retries bypass the cap: the packet was admitted once.
		h.q = append(h.q, *arg.(*pending))
		h.kick()
	}
	h.expire = func(arg any) { dp.Expire(arg.(*dpcls.Entry)) }
	return h
}

// Miss takes a packet that missed every flow-table level on cpu. Inline, it
// charges and translates on cpu and returns the installed flow for the
// caller to execute, or nil when translation failed and the packet was
// dropped. Queued, it parks the packet, or refuses it when the queue is
// full, and returns nil: the packet is no longer the caller's.
func (h *Handler) Miss(cpu *sim.CPU, key flow.Key, p *packet.Packet) *dpcls.Entry {
	s := h.s
	if capacity := s.cfg.QueueCap; capacity > 0 {
		if len(h.q) >= capacity {
			s.QueueDrops++
			h.perf.UpcallQueueDrops++
			h.dp.Drop(p, false)
			return nil
		}
		h.q = append(h.q, pending{key: key, pkt: p, cpu: cpu, enq: s.eng.Now()})
		if n := uint64(len(h.q)); n > h.perf.UpcallQueuePeak {
			h.perf.UpcallQueuePeak = n
		}
		h.kick()
		return nil
	}
	before := cpu.BusyTotal()
	cpu.Consume(s.cat, costmodel.UpcallCost)
	h.perf.Add(perf.StageUpcall, costmodel.UpcallCost)
	mf, err := s.translate(key)
	h.perf.AddUpcall(cpu.BusyTotal() - before)
	if err != nil {
		s.Errors++
		h.installNegative(key)
		h.dp.Drop(p, true)
		return nil
	}
	return h.dp.Install(key, mf.Mask, mf.Actions)
}

// kick schedules the next queued upcall one service interval from now —
// the handler's service rate, which makes the queue a real bottleneck
// rather than an inline call.
func (h *Handler) kick() {
	if h.busy || len(h.q) == 0 {
		return
	}
	h.busy = true
	h.timer.Schedule(h.s.cfg.resolved().ServiceInterval)
}

// service handles the oldest parked upcall on the handler thread.
func (h *Handler) service() {
	h.busy = false
	if len(h.q) == 0 {
		return
	}
	u := h.q[0]
	copy(h.q, h.q[1:])
	h.q[len(h.q)-1] = pending{}
	h.q = h.q[:len(h.q)-1]
	defer h.kick()

	// Several packets of one flow may park before the first resolves:
	// dedup against the flow table so only one translation happens.
	if h.dp.Lookup(u.key) == nil {
		s, cfg := h.s, h.s.cfg.resolved()
		if s.cpu == nil {
			s.cpu = s.eng.NewCPU(s.cpuName)
		}
		s.cpu.Consume(s.cat, costmodel.UpcallCost)
		h.perf.Add(perf.StageUpcall, costmodel.UpcallCost)
		mf, err := s.translate(u.key)
		if err != nil {
			if te, ok := err.(interface{ Transient() bool }); ok && te.Transient() &&
				u.attempt < cfg.MaxRetries {
				s.Retries++
				retry := u
				retry.attempt++
				s.eng.ScheduleArg(faultinject.Backoff(s.eng.Rand(), cfg.RetryBase, retry.attempt), h.requeue, &retry)
				return
			}
			s.Errors++
			h.perf.AddUpcall(s.eng.Now() - u.enq)
			h.installNegative(u.key)
			h.dp.Drop(u.pkt, true)
			return
		}
		h.dp.Install(u.key, mf.Mask, mf.Actions)
		h.perf.AddUpcall(s.eng.Now() - u.enq)
	}
	h.dp.Reinject(u.cpu, u.pkt)
}

// installNegative installs a short-lived drop flow after a failed upcall,
// so later packets of the failing flow drop in the fast path instead of
// re-upcalling (and re-failing) at full cost. It expires after
// NegativeFlowTTL, giving the flow a fresh chance once the slow path
// recovers.
func (h *Handler) installNegative(key flow.Key) {
	ttl := h.s.cfg.NegativeFlowTTL
	if ttl <= 0 {
		return
	}
	e := h.dp.Install(key, flow.MaskAll(), nil)
	h.s.eng.ScheduleArg(ttl, h.expire, e)
}
