package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a buffer. The CLI
// renders through fmt.Print*, so this is the full user-visible output.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("subcommand failed: %v", ferr)
	}
	return out
}

// TestGoldenOutputs pins the CLI's byte-exact rendering across the api view
// layer: every subcommand output below was captured before the typed-DTO
// refactor and must never drift. The simulation is virtual-time, so these
// bytes are deterministic on every machine.
func TestGoldenOutputs(t *testing.T) {
	smc := map[string]string{"smc-enable": "true"}
	cases := []struct {
		golden string
		dpType string
		other  map[string]string
		run    func(string, map[string]string) error
	}{
		{"dpctl-netdev.txt", "netdev", nil, dpctlStats},
		{"dpctl-netlink.txt", "netlink", nil, dpctlStats},
		{"dpctl-ebpf.txt", "ebpf", nil, dpctlStats},
		{"dpctl-smc.txt", "netdev", smc, dpctlStats},
		{"perf-netdev.txt", "netdev", nil, pmdPerfShow},
		{"perf-netlink.txt", "netlink", nil, pmdPerfShow},
		{"perf-ebpf.txt", "ebpf", nil, pmdPerfShow},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error { return c.run(c.dpType, c.other) })
			if !bytes.Equal(got, want) {
				t.Fatalf("output drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", c.golden, got, want)
			}
		})
	}
}
