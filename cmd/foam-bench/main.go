// Command foam-bench regenerates every evaluation artifact of the paper —
// Figures 2, 3 and 4 and the Section 2-6 claims — by printing the report of
// each experiment defined in internal/experiments. See DESIGN.md section 4
// for the experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	foam-bench [-run E1,E2,...] [-full] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// By default every experiment runs in a reduced configuration that
// completes in minutes; -full uses the paper's R15 + 128x128 configuration
// and much longer simulations where applicable.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"foam/internal/experiments"
)

func main() {
	workers := flag.Int("workers", 1, "shared-memory worker pool size for coupled runs (0 = all CPUs, 1 = serial); bit-identical for any value")
	runList := flag.String("run", "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11", "comma-separated experiment ids")
	full := flag.Bool("full", false, "use the paper's full configuration (much slower)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the selected experiments")
	jsonOut := flag.Bool("json", false, "record BENCH_spectral.json and BENCH_core.json instead of running experiments")
	outDir := flag.String("out", ".", "output directory for -json artifacts")
	quick := flag.Bool("quick", false, "with -json: short measurement budget (CI smoke, not a trajectory record)")
	verify := flag.Bool("verify", false, "verify the BENCH_*.json files given as arguments against the schema and exit")
	flag.Parse()

	if *verify {
		if err := runBenchVerify(flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := runBenchJSON(*quick, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "foam-bench: %v\n", err)
			}
		}()
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	size := experiments.Reduced
	if *full {
		size = experiments.Full
	}
	for _, e := range experiments.All {
		if !want[e.ID] {
			continue
		}
		fmt.Printf("\n================ %s — %s ================\n", e.ID, e.Title)
		t0 := time.Now()
		if res, err := e.Run(size, *workers); err != nil {
			fmt.Println("error:", err)
		} else {
			os.Stdout.Write(res.Report.Bytes())
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
