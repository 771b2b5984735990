package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"ovsxdp/internal/measure"
	"ovsxdp/internal/sim"
)

// Profile trades fidelity for wall-clock time: Full reproduces the paper's
// windows; Quick shortens them for tests and CI.
type Profile struct {
	Warmup     sim.Time
	Window     sim.Time
	SearchIter int
	RRCount    int

	// PerfStages opts into per-stage cycle attribution rows (the perf
	// layer's counters) in experiments that support them (fig9, table4).
	// Off by default so measured outputs stay byte-identical.
	PerfStages bool
}

// Full is the publication-quality profile.
var Full = Profile{Warmup: 6 * sim.Millisecond, Window: 30 * sim.Millisecond, SearchIter: 11, RRCount: 2000}

// Quick is the CI profile.
var Quick = Profile{Warmup: 3 * sim.Millisecond, Window: 10 * sim.Millisecond, SearchIter: 9, RRCount: 400}

// Row is one reported measurement with its paper anchor.
type Row struct {
	Name     string
	Measured float64
	Paper    float64 // 0 when the paper gives no number for this row
	Unit     string
	Note     string
}

// Ratio returns measured/paper, or 0 when no anchor exists.
func (r Row) Ratio() float64 {
	if r.Paper == 0 {
		return 0
	}
	return r.Measured / r.Paper
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
}

// Add appends a row.
func (r *Report) Add(name string, measured, paper float64, unit string) {
	r.Rows = append(r.Rows, Row{Name: name, Measured: measured, Paper: paper, Unit: unit})
}

// AddNote appends a free-form note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as a table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		if row.Paper != 0 {
			fmt.Fprintf(&b, "  %-42s %10.2f %-8s (paper %8.2f, x%.2f)\n",
				row.Name, row.Measured, row.Unit, row.Paper, row.Ratio())
		} else {
			fmt.Fprintf(&b, "  %-42s %10.2f %-8s\n", row.Name, row.Measured, row.Unit)
		}
		if row.Note != "" {
			fmt.Fprintf(&b, "      %s\n", row.Note)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// RunConfig is everything one exhibit run takes.
type RunConfig struct {
	Profile Profile
	// Other overlays ovs-vsctl-style other_config keys onto every bed an
	// exhibit builds from the Section 5.2 defaults (`ovsbench -o`). Arms
	// that pin their own configuration (the table2 ladder, cachesweep,
	// corescale, soak) never receive it. nil changes nothing.
	Other map[string]string
	// Out is where a sweep writes its machine-readable JSON result; empty
	// writes nothing.
	Out string
	// Points restricts a sweep to the named points; empty runs them all.
	// Experiment.Check validates the names before a run.
	Points []string
}

// bed returns the Section 5.2 default bed with the run-wide overlay.
func (rc RunConfig) bed(kind DPKind, flows int) BedConfig {
	cfg := DefaultBed(kind, flows)
	cfg.Other = rc.Other
	return cfg
}

// wants reports whether the point filter selects the named sweep point.
func (rc RunConfig) wants(point string) bool {
	return len(rc.Points) == 0 || slices.Contains(rc.Points, point)
}

// persist writes a sweep's result to rc.Out as indented JSON and notes the
// outcome on the report. An empty Out writes nothing.
func (rc RunConfig) persist(rep *Report, res any) {
	if rc.Out == "" {
		return
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(rc.Out, append(data, '\n'), 0o644)
	}
	if err != nil {
		rep.AddNote("failed to write %s: %v", rc.Out, err)
	} else {
		rep.AddNote("wrote %s", rc.Out)
	}
}

// Experiment is a registered exhibit: a paper table or figure, or a
// robustness scenario.
type Experiment struct {
	ID    string
	Title string
	// Scenario marks an exhibit with no paper anchor; All() leaves
	// scenarios out, so `ovsbench all` reproduces the paper alone.
	Scenario bool
	// Points names a sweep's selectable points at a profile; nil when the
	// exhibit has none.
	Points func(Profile) []string
	Run    func(RunConfig) *Report
}

// Check rejects a point filter naming a point the exhibit does not sweep
// at rc's profile, listing the valid ones.
func (e Experiment) Check(rc RunConfig) error {
	var valid []string
	if e.Points != nil {
		valid = e.Points(rc.Profile)
	}
	for _, p := range rc.Points {
		if slices.Contains(valid, p) {
			continue
		}
		if len(valid) == 0 {
			return fmt.Errorf("%s has no sweep points to select", e.ID)
		}
		return fmt.Errorf("%s has no point %q at this profile (have %s)", e.ID, p, strings.Join(valid, ", "))
	}
	return nil
}

// pointNames lists a sweep's point names in sweep order.
func pointNames[T any](points []T, name func(T) string) []string {
	out := make([]string, len(points))
	for i, pt := range points {
		out[i] = name(pt)
	}
	return out
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get looks an exhibit up by id (e.g. "fig9a", "table2", "restart").
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every paper exhibit sorted by id.
func All() []Experiment { return sorted(false) }

// Scenarios returns every robustness scenario sorted by id.
func Scenarios() []Experiment { return sorted(true) }

func sorted(scenario bool) []Experiment {
	var out []Experiment
	for _, e := range registry {
		if e.Scenario == scenario {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// searchConfig builds the lossless search bracket for a profile.
func searchConfig(p Profile, hiPPS float64) measure.SearchConfig {
	return measure.SearchConfig{LoPPS: 5e4, HiPPS: hiPPS,
		LossTolerance: 0.002, Iterations: p.SearchIter}
}
