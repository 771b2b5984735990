// Command perfbench is the repository benchmark. It drives one workload
// through the AF_XDP physical-to-physical bed — open-loop generator ->
// nicsim -> XDP/eBPF -> AF_XDP -> PMD (EMC -> dpcls -> upcall/ofproto ->
// conntrack -> actions) -> nicsim -> wire — checks every delivered frame,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// ones) with a final JSON line:
//
//	perfbench -workload fastpath -seed 1 -seconds 10 -trace 0
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"time"

	"ovsxdp/internal/sim"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fastpath, churn or firewall")
	seed := flag.Uint64("seed", 1, "workload seed: tuples, sizes, visit and churn order, jitter")
	seconds := flag.Float64("seconds", 10, "host seconds of repeated hi windows to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = traced(w, *seed)
	} else {
		res, err = endToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Printf("CORRECTNESS FAILURE: %v\n", err)
		res.Correct = false
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// pass is one workload pass's beds, in build order, with the packets
// every measured window offered and failed to deliver correctly.
type pass struct {
	w         *workload
	seed      uint64
	setups    []time.Duration
	probes    int
	attempted uint64
	failed    uint64
}

func (p *pass) build(rate float64, stamp bool, tr *tracer) (*bed, error) {
	b, err := buildBed(p.w, rate, p.seed, stamp, tr)
	if err != nil {
		return nil, err
	}
	p.setups = append(p.setups, b.setup)
	return b, nil
}

// run measures a bed, booking the window's offered packets and every
// frame that failed a wire check.
func (p *pass) run(b *bed, win sim.Time, o runOpts) (*window, error) {
	r, err := b.run(win, o)
	if r != nil {
		p.attempted += r.offered
		p.failed += b.wire.bad
	}
	return r, err
}

// failure is the result printed when a correctness check fails: every
// packet the pass offered in a measured window, and the failed checks
// (at least the one that stopped the pass).
func (p *pass) failure() *result {
	return &result{Attempted: max(p.attempted, 1), Failed: max(p.failed, 1), Metrics: map[string]metric{}}
}

// probe reports whether rate is lossless: a fresh bed, the probe window,
// and every packet due in it correctly delivered. Probe losses are the
// point of the search, so they are not booked as failures.
func (p *pass) probe(rate float64) (bool, error) {
	p.probes++
	b, err := p.build(rate, true, nil)
	if err != nil {
		return false, err
	}
	r, err := p.run(b, p.w.probeWindow, runOpts{})
	if err != nil {
		return false, fmt.Errorf("probe at %.4f Mpps: %w", rate/1e6, err)
	}
	fmt.Printf("  probe %.4f Mpps: offered %d, delivered %d\n", rate/1e6, r.offered, r.good)
	return r.good == r.offered, nil
}

// search bisects the offered rate (geometrically, a fixed number of
// steps) for the highest lossless rate, widening the bracket if the code
// under test falls outside it.
func (p *pass) search() (float64, error) {
	lo, hi := p.w.searchLo, p.w.searchHi
	loSeen, hiSeen := false, false
	for i := 0; i < p.w.probes; i++ {
		mid := math.Sqrt(lo * hi)
		ok, err := p.probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo, loSeen = mid, true
		} else {
			hi, hiSeen = mid, true
		}
	}
	for !loSeen && lo > 1e3 {
		ok, err := p.probe(lo)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		lo /= 2
	}
	for !hiSeen && lo < 1e9 {
		ok, err := p.probe(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo, hi = hi, hi*2
	}
	return lo, nil
}

// endToEnd runs the untraced pass: the lossless search, the lo point,
// and the hi point, whose bed keeps running for seconds of host time in
// further windows to measure simulator speed. A second hi bed must
// reproduce the first's virtual metrics bit for bit, and a hi bed without
// latency stamps must too.
func endToEnd(w *workload, seed uint64, seconds float64) (*result, error) {
	p := &pass{w: w, seed: seed}
	fmt.Printf("workload %s seed %d: lo %.3f Mpps, hi %.3f Mpps (open loop; the generator runs on virtual time and is never late)\n",
		w.name, seed, w.lo/1e6, w.hi/1e6)
	lossless, err := p.search()
	if err != nil {
		return p.failure(), err
	}
	lo, err := p.point(w.lo, runOpts{timed: true}, true)
	if err != nil {
		return p.failure(), err
	}
	more := time.Duration(seconds * float64(time.Second))
	hi, err := p.point(w.hi, runOpts{timed: true, heap: true, more: more}, true)
	if err != nil {
		return p.failure(), err
	}
	again, err := p.point(w.hi, runOpts{}, false)
	if err != nil {
		return p.failure(), err
	}
	if err := sameV(hi.v, again.v); err != nil {
		return p.failure(), fmt.Errorf("same-seed beds disagree: %w", err)
	}
	b, err := p.build(w.hi, false, nil)
	if err != nil {
		return p.failure(), err
	}
	plain, err := p.run(b, w.hiWindow, runOpts{})
	if err != nil {
		return p.failure(), err
	}
	if err := sameV(hi.v, plain.v); err != nil {
		return p.failure(), fmt.Errorf("latency stamps perturb the switch: %w", err)
	}

	var setups []float64
	for _, s := range p.setups {
		setups = append(setups, s.Seconds())
	}
	// One pass builds the search probes plus the lo and hi beds; every
	// bed of a workload does the same set-up work, so the pass's set-up
	// time is that bed count times the median bed set-up.
	beds := float64(p.probes + 2)
	m := map[string]metric{
		"lossless_mpps":   {lossless / 1e6, "Mpps"},
		"lat_p50_us.lo":   lo.v["lat_p50_us"],
		"lat_p99_us.lo":   lo.v["lat_p99_us"],
		"lat_p50_us.hi":   hi.v["lat_p50_us"],
		"lat_p99_us.hi":   hi.v["lat_p99_us"],
		"vcpu_ns_per_pkt": hi.v["vcpu_ns_per_pkt"],
		"setup_s":         {beds * median(setups), "s"},
		"heap_mb":         {hi.heapMB, "MB"},
	}
	fmt.Printf("latency samples: lo %d, hi %d\n", lo.samples, hi.samples)
	fmt.Printf("hi windows timed: %d; simulated Mpps per host second: %s\n", len(hi.rates), fmtList(hi.rates))
	fmt.Printf("bed set-ups: %d, median %.4fs, pass of %d beds\n", len(setups), median(setups), int(beds))
	fmt.Printf("virtual-metric fingerprint (hi): %s\n", fingerprint(hi.v))
	printMetrics(m)
	// Reported but not gated: loss at hi is zero on the code the rates
	// were sized on (it is the failed share of the JSON line), and the
	// simulator's host-time speed spreads more run to run than any gate
	// allows on a shared host.
	fmt.Printf("  %-36s %14.6g %s (not gated; = failed/attempted)\n", "loss_pct", hi.v["loss_pct"].Value, "%")
	fmt.Printf("  %-36s %14.6g %s (not gated; median of %d windows)\n", "sim_mpps_wall", median(hi.rates), "Mpps", len(hi.rates))
	fmt.Printf("  %-36s %14.6g %s (not gated)\n", "heap_growth_mb_per_vs", hi.growthMB, "MB/s")
	return &result{Correct: true, Attempted: hi.offered, Failed: hi.offered - hi.good, Metrics: m}, nil
}

// point measures one fixed-rate window on a fresh bed and, with drain
// set, then drains it through both table ledgers.
func (p *pass) point(rate float64, o runOpts, drain bool) (*window, error) {
	b, err := p.build(rate, true, nil)
	if err != nil {
		return nil, err
	}
	r, err := p.run(b, p.w.windowAt(rate), o)
	if err != nil {
		return nil, err
	}
	if drain {
		if err := b.drain(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traced runs the per-layer pass: untraced lo and hi beds, then a traced
// hi bed whose virtual metrics must equal the untraced one's.
func traced(w *workload, seed uint64) (*result, error) {
	p := &pass{w: w, seed: seed}
	lo, err := p.point(w.lo, runOpts{timed: true}, true)
	if err != nil {
		return p.failure(), err
	}
	hi, err := p.point(w.hi, runOpts{timed: true, heap: true, more: 2 * time.Second}, true)
	if err != nil {
		return p.failure(), err
	}
	tr := newTracer()
	b, err := p.build(w.hi, true, tr)
	if err != nil {
		return p.failure(), err
	}
	tw, err := p.run(b, w.hiWindow, runOpts{timed: true})
	if err != nil {
		return p.failure(), err
	}
	if err := sameV(hi.v, tw.v); err != nil {
		return p.failure(), fmt.Errorf("tracing perturbs the switch: %w", err)
	}
	tr.replay(b)
	if err := b.drain(); err != nil {
		return p.failure(), err
	}

	m := map[string]metric{}
	for k, v := range hi.v {
		m[k] = v
	}
	for _, k := range []string{"core.rx_vns_per_pkt", "core.actions_vns_per_pkt", "core.batch_mean",
		"core.idle_share", "nicsim.rx_drops", "afxdp.ring_drops"} {
		m[k+".lo"] = lo.v[k]
		m[k+".hi"] = m[k]
		delete(m, k)
	}
	for _, k := range []string{"lat_p50_us", "lat_p99_us", "loss_pct", "vcpu_ns_per_pkt"} {
		delete(m, k)
	}
	for k, v := range tr.spanMetrics(tw.offered) {
		m[k] = v
	}
	plain := median(hi.rates) * 1e6
	withTrace := float64(tw.offered) / tw.wall.Seconds()
	m["sim.event_ns"] = metric{float64(hi.wall.Nanoseconds()) / float64(hi.events), "ns"}
	m["sim.event_allocs"] = metric{float64(hi.allocs) / float64(hi.events), "allocs"}
	m["trace.overhead_pct"] = metric{100 * (plain/withTrace - 1), "%"}
	m["sim.mpps_wall"] = metric{median(hi.rates), "Mpps"}
	m["sim.heap_growth_mb_per_vs"] = metric{hi.growthMB, "MB/s"}
	m["trace.clock_ns"] = metric{clockNs(), "ns"}
	fmt.Printf("workload %s seed %d traced at hi %.3f Mpps: %d captured packets replayed\n",
		w.name, seed, w.hi/1e6, len(tr.capture))
	fmt.Printf("virtual-metric fingerprint (hi): %s\n", fingerprint(hi.v))
	printMetrics(m)
	return &result{Correct: true, Attempted: tw.offered, Failed: tw.offered - tw.good, Metrics: m}, nil
}

// fingerprint hashes every virtual metric bit for bit, so separate runs
// with the same seed can be compared for determinism.
func fingerprint(v map[string]metric) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%x;", k, math.Float64bits(v[k].Value))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}
