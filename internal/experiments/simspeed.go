package experiments

// The simspeed scenario measures the simulator itself: simulated packets
// (and engine events) per wall-clock second across the standard testbed
// shapes. It is the repo's raw-speed tracker — ROADMAP item 5 names
// simulator throughput as the binding constraint on million-flow churn,
// conntrack at connection scale, and NIC offload sweeps, so the trajectory
// is recorded PR over PR in BENCH_simspeed.json.
//
// Unlike every other experiment and scenario, simspeed's headline numbers
// are wall-clock measurements and therefore vary run to run and machine to
// machine. The virtual-domain columns (packets, events) stay deterministic.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ovsxdp/internal/api"
	"ovsxdp/internal/sim"
)

// simspeedPreRefactor records simulated-packets-per-wall-second measured on
// this machine immediately before the PR-6 zero-alloc refactor (heap-of-
// closures event queue, per-packet heap allocation end-to-end), full
// profile. It is the fixed reference the speedup column is computed
// against; absolute numbers move with hardware but the ratio tracks the
// refactor's effect.
var simspeedPreRefactor = map[string]float64{
	"steady":    333938,
	"multiflow": 342257,
	"multipmd":  328437,
	"kernel":    681664,
}

// SimspeedPoint is one measured configuration.
type SimspeedPoint struct {
	Name string `json:"name"`
	// VirtualMs is the simulated window in milliseconds.
	VirtualMs float64 `json:"virtual_ms"`
	// Packets is the number of packets generated during the window
	// (deterministic for a given profile).
	Packets uint64 `json:"packets"`
	// Events is the number of engine events executed during the window
	// (deterministic for a given profile).
	Events uint64 `json:"events"`
	// WallS is the wall-clock time the window took to simulate.
	WallS float64 `json:"wall_s"`
	// PktsPerWallS is the headline metric: simulated packets per
	// wall-clock second.
	PktsPerWallS float64 `json:"pkts_per_wall_s"`
	// EventsPerWallS is engine events per wall-clock second.
	EventsPerWallS float64 `json:"events_per_wall_s"`
	// AllocsPerPkt is heap allocations per simulated packet during the
	// measured window (steady state; warmup excluded).
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	// SpeedupVsPreRefactor is PktsPerWallS over the frozen pre-refactor
	// baseline for this point, or 0 when no baseline exists.
	SpeedupVsPreRefactor float64 `json:"speedup_vs_pre_refactor,omitempty"`
}

// SimspeedResult is the BENCH_simspeed.json schema.
type SimspeedResult struct {
	api.Envelope
	Points []SimspeedPoint `json:"points"`
	// PreRefactorPktsPerWallS is the frozen pre-PR-6 reference
	// (see simspeedPreRefactor).
	PreRefactorPktsPerWallS map[string]float64 `json:"pre_refactor_pkts_per_wall_s"`
}

// simspeedConfigs are the standard shapes, cheapest first.
var simspeedConfigs = []struct {
	name    string
	ratePPS float64
	build   func(RunConfig) *Bed
}{
	{"steady", 2e6, func(rc RunConfig) *Bed {
		return NewP2PBed(rc.bed(KindAFXDP, 1))
	}},
	{"multiflow", 2e6, func(rc RunConfig) *Bed {
		return NewP2PBed(rc.bed(KindAFXDP, 10000))
	}},
	{"multipmd", 6e6, func(rc RunConfig) *Bed {
		cfg := rc.bed(KindAFXDP, 256)
		cfg.Queues = 4
		return NewP2PBed(cfg)
	}},
	{"kernel", 1e6, func(rc RunConfig) *Bed {
		return NewP2PBed(rc.bed(KindKernel, 1))
	}},
}

func runSimspeedPoint(name string, ratePPS float64, bed *Bed, p Profile) SimspeedPoint {
	warmup, window := p.Warmup, p.Window
	bed.Gen.Run(ratePPS, warmup+window)
	bed.Eng.RunUntil(warmup)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sentBefore := bed.Gen.Sent
	eventsBefore := bed.Eng.Executed()
	t0 := time.Now()
	bed.Eng.RunUntil(warmup + window)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)

	pkts := bed.Gen.Sent - sentBefore
	events := bed.Eng.Executed() - eventsBefore
	pt := SimspeedPoint{
		Name:      name,
		VirtualMs: float64(window) / float64(sim.Millisecond),
		Packets:   pkts,
		Events:    events,
		WallS:     wall,
	}
	if wall > 0 {
		pt.PktsPerWallS = float64(pkts) / wall
		pt.EventsPerWallS = float64(events) / wall
	}
	if pkts > 0 {
		pt.AllocsPerPkt = float64(ms1.Mallocs-ms0.Mallocs) / float64(pkts)
	}
	if base := simspeedPreRefactor[name]; base > 0 {
		pt.SpeedupVsPreRefactor = pt.PktsPerWallS / base
	}
	return pt
}

// RunSimspeed executes the selected simspeed points for a profile and
// returns the structured result (the scenario wrapper renders and persists
// it).
func RunSimspeed(rc RunConfig) SimspeedResult {
	p := rc.Profile
	profileName := "full"
	if p.Window == Quick.Window && p.Warmup == Quick.Warmup {
		profileName = "quick"
	}
	res := SimspeedResult{
		Envelope:                api.NewEnvelope("simspeed", 1, profileName),
		PreRefactorPktsPerWallS: simspeedPreRefactor,
	}
	for _, c := range simspeedConfigs {
		if !rc.wants(c.name) {
			continue
		}
		res.Points = append(res.Points, runSimspeedPoint(c.name, c.ratePPS, c.build(rc), p))
	}
	return res
}

func init() {
	register(Experiment{
		ID:       "simspeed",
		Title:    "simulator throughput: simulated packets per wall-second",
		Scenario: true,
		Points: func(Profile) []string {
			var names []string
			for _, c := range simspeedConfigs {
				names = append(names, c.name)
			}
			return names
		},
		Run: func(rc RunConfig) *Report {
			res := RunSimspeed(rc)
			rep := &Report{ID: "simspeed", Title: "simulator throughput (wall-clock; varies by machine)"}
			for _, pt := range res.Points {
				rep.Add(pt.Name+" simulated pkts/wall-s", pt.PktsPerWallS/1e6, 0, "Mpps-wall")
				rep.Add(pt.Name+" engine events/wall-s", pt.EventsPerWallS/1e6, 0, "Mev/s")
				rep.Add(pt.Name+" heap allocs/pkt", pt.AllocsPerPkt, 0, "allocs")
				if pt.SpeedupVsPreRefactor > 0 {
					rep.Add(pt.Name+" speedup vs pre-refactor", pt.SpeedupVsPreRefactor, 0, "x")
				}
			}
			rc.persist(rep, res)
			return rep
		},
	})
}

// LoadSimspeedJSON reads a previously written result (the CI regression
// gate compares a fresh run against the committed file).
func LoadSimspeedJSON(path string) (SimspeedResult, error) {
	var res SimspeedResult
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// CompareSimspeed checks cur against base point by point, returning an
// error naming every point whose packets-per-wall-second fell below
// (1-tolerance) of the baseline. Points missing from either side are
// skipped, so a baseline from the full point set gates a CI run of just
// the cheap ones.
func CompareSimspeed(cur, base SimspeedResult, tolerance float64) error {
	baseBy := map[string]SimspeedPoint{}
	for _, pt := range base.Points {
		baseBy[pt.Name] = pt
	}
	var bad []string
	for _, pt := range cur.Points {
		b, ok := baseBy[pt.Name]
		if !ok || b.PktsPerWallS <= 0 {
			continue
		}
		if pt.PktsPerWallS < (1-tolerance)*b.PktsPerWallS {
			bad = append(bad, fmt.Sprintf("%s: %.2f Mpps-wall < %.0f%% of baseline %.2f",
				pt.Name, pt.PktsPerWallS/1e6, (1-tolerance)*100, b.PktsPerWallS/1e6))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("simspeed regression: %v", bad)
	}
	return nil
}
