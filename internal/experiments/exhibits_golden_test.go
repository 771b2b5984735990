package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// update rewrites testdata/golden from the current code. A golden changes
// only with a deliberate behaviour change, never to make a failing run pass.
var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.txt from the current code")

// quickRuns memoizes one Quick-profile report per exhibit id, so the golden
// comparison, the shape tests and the same-seed check share a single run.
var quickRuns sync.Map // id -> *quickRun

type quickRun struct {
	once sync.Once
	rep  *Report
}

// quickReport returns the memoized Quick-profile report for id, running the
// exhibit on first use. Callers must treat the report as read-only.
func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	rep := memoQuick(id)
	if rep == nil {
		t.Fatalf("exhibit %s is not registered", id)
	}
	return rep
}

func memoQuick(id string) *Report {
	v, _ := quickRuns.LoadOrStore(id, &quickRun{})
	q := v.(*quickRun)
	q.once.Do(func() { q.rep = runQuick(id) })
	return q.rep
}

// runQuick runs one registered exhibit at the Quick profile, or returns nil
// for an unknown id.
func runQuick(id string) *Report {
	if e, ok := Get(id); ok {
		return e.Run(RunConfig{Profile: Quick})
	}
	return nil
}

// goldenIDs lists every registered exhibit with deterministic output: all
// experiments and scenarios except simspeed, whose rows are wall-clock.
func goldenIDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	for _, s := range Scenarios() {
		if s.ID != "simspeed" {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// TestGoldenExhibits runs every deterministic exhibit at the Quick profile
// and compares the rendered report byte for byte against
// testdata/golden/<id>.txt. GOMAXPROCS workers compute the reports in id
// order — fig12, the longest, sorts near the front, so it overlaps the rest
// instead of trailing them — and the subtests wait on the memoized
// results. The test stays serial, so the shape tests that follow it (file
// order) find their reports ready. Run with -update to re-record.
func TestGoldenExhibits(t *testing.T) {
	ids := goldenIDs()
	next := make(chan string, len(ids))
	for _, id := range ids {
		next <- id
	}
	close(next)
	for range runtime.GOMAXPROCS(0) {
		go func() {
			for id := range next {
				memoQuick(id)
			}
		}()
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			got := quickReport(t, id).String()
			path := filepath.Join("testdata", "golden", id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s\n%s", id, path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(no differing line)"
}
