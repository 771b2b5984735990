// Command ovsbench regenerates the paper's tables and figures and runs the
// robustness scenarios.
//
// Usage:
//
//	ovsbench list                 # show available exhibits
//	ovsbench all                  # run every paper exhibit (full profile)
//	ovsbench fig9a table2 ...     # run selected exhibits
//	ovsbench -quick fig8a         # CI-sized windows
//	ovsbench -quick churnscale -points 10k -out churnscale-ci.json
//
// Each experiment prints measured values next to the paper's anchors with
// the measured/paper ratio, matching the per-experiment index in DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ovsxdp/internal/api"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the named exhibits and
// returns the exit status — 0 on success, 1 on a bad exhibit, point or
// config key (nothing runs then), 2 on a usage error, 3 when a simspeed run
// regresses against its baseline.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ovsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use shortened measurement windows")
	perfStages := fs.Bool("perf", false, "add per-stage cycle attribution rows (fig9, table4)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	simspeedBaseline := fs.String("simspeed-baseline", "", "compare the simspeed run against this committed JSON; exit 3 on >20% regression")
	out := fs.String("out", "BENCH_<id>.json", "where a sweep writes its JSON result; <id> is replaced by the exhibit id")
	points := fs.String("points", "", "comma-separated sweep points to run (default: all)")
	var other map[string]string
	fs.Func("o", "other_config key=value applied to every default bed (repeatable, e.g. -o pmd-rxq-assign=cycles)", func(s string) error {
		k, v, err := api.ParseConfigArg(s)
		if err != nil {
			return err
		}
		if other == nil {
			other = map[string]string{}
		}
		other[k] = v
		return nil
	})
	fs.Usage = func() { usage(fs) }
	// Flags may follow the exhibit ids: parse, take one id, repeat.
	var ids []string
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		ids = append(ids, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(ids) == 0 {
		fs.Usage()
		return 2
	}
	if err := dpif.CheckConfig(other); err != nil {
		fmt.Fprintln(stderr, "ovsbench:", err)
		return 1
	}

	profile := experiments.Full
	if *quick {
		profile = experiments.Quick
	}
	profile.PerfStages = *perfStages
	base := experiments.RunConfig{Profile: profile, Other: other}
	if *points != "" {
		for _, p := range strings.Split(*points, ",") {
			base.Points = append(base.Points, strings.TrimSpace(p))
		}
	}

	if ids[0] == "list" {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Scenarios() {
			fmt.Fprintf(stdout, "  %-8s %s (scenario)\n", e.ID, e.Title)
		}
		return 0
	}

	var exps []experiments.Experiment
	if ids[0] == "all" {
		exps = experiments.All()
	} else {
		for _, id := range ids {
			e, ok := experiments.Get(id)
			if !ok {
				fmt.Fprintf(stderr, "ovsbench: unknown experiment %q (try 'ovsbench list')\n", id)
				return 1
			}
			exps = append(exps, e)
		}
	}
	// Validate every point filter before anything runs, so a typo writes
	// no result file.
	for _, e := range exps {
		if err := e.Check(base); err != nil {
			fmt.Fprintln(stderr, "ovsbench:", err)
			return 1
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(stderr, "ovsbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile, stderr)
	}

	for _, e := range exps {
		rc := base
		rc.Out = strings.ReplaceAll(*out, "<id>", e.ID)
		start := time.Now()
		fmt.Fprint(stdout, e.Run(rc))
		fmt.Fprintf(stdout, "  (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if e.ID == "simspeed" && *simspeedBaseline != "" {
			if err := compareSimspeed(rc.Out, *simspeedBaseline); err != nil {
				fmt.Fprintln(stderr, "ovsbench:", err)
				return 3
			}
		}
	}
	return 0
}

// compareSimspeed gates the simspeed result at path against a baseline.
func compareSimspeed(path, baseline string) error {
	cur, err := experiments.LoadSimspeedJSON(path)
	if err != nil {
		return err
	}
	base, err := experiments.LoadSimspeedJSON(baseline)
	if err != nil {
		return err
	}
	return experiments.CompareSimspeed(cur, base, 0.20)
}

func writeHeapProfile(path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "ovsbench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(stderr, "ovsbench:", err)
	}
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `ovsbench — regenerate the paper's evaluation

usage:
  ovsbench [flags] list | all | <id>...
  ovsbench [-quick] [-o key=value]... fig9a table2
  ovsbench [-quick] churnscale [-points 10k] [-out churnscale-ci.json]
  ovsbench [-quick] simspeed [-points steady] [-simspeed-baseline BENCH_simspeed.json]

experiments: fig1 fig2 fig8a fig8b fig8c fig9a fig9b fig9c fig10 fig11 fig12
             table1 table2 table3 table4 table5
scenarios:   restart cachesweep churnscale connscale corescale offload simspeed soak

flags:
`)
	fs.PrintDefaults()
}
