package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownPointWritesNothing: a typo in -points must fail the run before
// anything executes — non-zero exit, the valid points listed, and no result
// file (with the default -out it would overwrite the committed BENCH file).
func TestUnknownPointWritesNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "<id>.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-points", "10K", "-out", out, "churnscale"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown point exited 0")
	}
	if !strings.Contains(stderr.String(), `"10K"`) || !strings.Contains(stderr.String(), "have 10k") {
		t.Errorf("stderr does not name the point and the valid ones: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a report was printed: %q", stdout.String())
	}
	if _, err := os.Stat(strings.ReplaceAll(out, "<id>", "churnscale")); !os.IsNotExist(err) {
		t.Errorf("result file written despite the error (stat err %v)", err)
	}
}

// TestPointsAndOut: -points selects the sweep point and -out, with <id>
// expanded, receives the JSON result. Flags may follow the exhibit id.
func TestPointsAndOut(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "churnscale", "-points", "10k", "-out", filepath.Join(dir, "<id>-ci.json")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "churnscale-ci.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name": "10k"`) {
		t.Errorf("result lacks the 10k point:\n%s", data)
	}
	if !strings.Contains(stdout.String(), "10k flows: capacity per core") {
		t.Errorf("report lacks the 10k rows:\n%s", stdout.String())
	}
}

// TestBadConfigKey: an unknown -o key fails before any exhibit runs.
func TestBadConfigKey(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", "nope=1", "fig1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown other_config key "nope"`) || stdout.Len() != 0 {
		t.Errorf("stdout %q stderr %q", stdout.String(), stderr.String())
	}
}
