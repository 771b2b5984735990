package experiments

import (
	"strings"
	"testing"

	"ovsxdp/internal/sim"
)

// tinyProfile keeps the lossless searches below cheap: the tests compare two
// runs of one exhibit, not paper numbers.
var tinyProfile = Profile{Warmup: 500 * sim.Microsecond, Window: sim.Millisecond, SearchIter: 3, RRCount: 50}

// TestOverlaySkipsPinnedArms: arms that pin their own configuration — the
// cachesweep cache hierarchies and the table2 optimization ladder — must
// not receive the run-wide other_config overlay, or `-o smc-enable=true`
// silently turns the SMC on inside the "emc" arm and relabels the result.
func TestOverlaySkipsPinnedArms(t *testing.T) {
	t.Parallel()
	overlay := map[string]string{"smc-enable": "true", "emc-insert-inv-prob": "10", "emc-enable": "false"}
	for _, c := range []struct {
		id string
		rc RunConfig
	}{
		{"cachesweep", RunConfig{Profile: Quick, Points: []string{"1k"}}},
		{"table2", RunConfig{Profile: tinyProfile}},
	} {
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			e, _ := Get(c.id)
			plain := e.Run(c.rc).String()
			c.rc.Other = overlay
			if got := e.Run(c.rc).String(); got != plain {
				t.Errorf("overlay reached a pinned arm:\n--- without -o\n%s\n--- with -o\n%s", plain, got)
			}
		})
	}
}

// TestOverlayReachesDefaultBeds: exhibits built on the Section 5.2 default
// bed do take the overlay — disabling the EMC must cost fig2's DPDK row.
func TestOverlayReachesDefaultBeds(t *testing.T) {
	t.Parallel()
	e, _ := Get("fig2")
	plain := e.Run(RunConfig{Profile: tinyProfile})
	noEMC := e.Run(RunConfig{Profile: tinyProfile, Other: map[string]string{"emc-enable": "false"}})
	if a, b := row(t, plain, "dpdk").Measured, row(t, noEMC, "dpdk").Measured; b >= a {
		t.Errorf("emc-enable=false did not slow dpdk: %.2f Mpps with EMC, %.2f without", a, b)
	}
}

// TestCheckRejectsUnknownPoints: a point filter naming a point the sweep
// does not have at the profile is an error that lists the valid points,
// instead of a silently empty run.
func TestCheckRejectsUnknownPoints(t *testing.T) {
	churn, _ := Get("churnscale")
	if err := churn.Check(RunConfig{Profile: Quick, Points: []string{"10k"}}); err != nil {
		t.Fatalf("10k is a quick churnscale point: %v", err)
	}
	err := churn.Check(RunConfig{Profile: Quick, Points: []string{"10K"}})
	if err == nil || !strings.Contains(err.Error(), `"10K"`) || !strings.Contains(err.Error(), "(have 10k)") {
		t.Fatalf("unknown point: err = %v, want it named with the valid list", err)
	}
	// The 1m point exists only in the full profile.
	if err := churn.Check(RunConfig{Profile: Quick, Points: []string{"1m"}}); err == nil {
		t.Error("1m accepted at the quick profile, where churnscale does not run it")
	}
	if err := churn.Check(RunConfig{Profile: Full, Points: []string{"1m"}}); err != nil {
		t.Errorf("1m rejected at the full profile: %v", err)
	}
	fig9a, _ := Get("fig9a")
	if err := fig9a.Check(RunConfig{Profile: Quick, Points: []string{"1k"}}); err == nil {
		t.Error("points accepted for an exhibit without a sweep")
	}
	for _, e := range append(All(), Scenarios()...) {
		if err := e.Check(RunConfig{Profile: Full}); err != nil {
			t.Errorf("%s: an empty filter must always pass: %v", e.ID, err)
		}
	}
}
