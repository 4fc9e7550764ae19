// Command perfbench is FOAM-Go's end-to-end benchmark. It runs one named
// workload from a seed, measures it for a fixed number of seconds, checks
// the program's outputs bit for bit, and prints every metric by name and
// unit; the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 1 it runs the
// workload again with spans around every public call it makes into the
// model's layers and prints the per-layer metrics instead.
//
//	go run . --workload coupled-r15 --seed 1 --seconds 30 --trace 0
//
// perfbench/README.md lists the workloads, metrics and the layer-to-metric
// predictions. The process exits non-zero when a correctness check fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	nproc    int
}

// workload is one named benchmark workload. run measures it and returns
// the metric values of the catalog the mode asks for.
type workload struct {
	name string
	run  func(o options, out io.Writer) (*outcome, error)
}

var workloads = []workload{
	{"coupled-r15", runCoupled},
	{"serve-r5", func(o options, out io.Writer) (*outcome, error) { return runEnsemble(o, out, false) }},
	{"lifecycle-r5", func(o options, out io.Writer) (*outcome, error) { return runEnsemble(o, out, true) }},
}

// outcome is what a workload run measured.
type outcome struct {
	vals      map[string]float64
	attempted int
	failed    int
	spans     []Span
}

// check records one correctness check as an attempted operation, failing
// it (and reporting why on out) when err is non-nil.
func (oc *outcome) check(out io.Writer, what string, err error) {
	oc.attempted++
	if err != nil {
		oc.failed++
		fmt.Fprintf(out, "# CHECK FAILED %s: %v\n", what, err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seed int64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: coupled-r15, serve-r5 or lifecycle-r5")
	fs.Int64Var(&seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "perfbench-trace"), "directory the traced mode writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seed < 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seed must be >= 0, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	o.seed, o.trace = uint64(seed), trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	// Everything is sized for the machine's cores: GOMAXPROCS, the pooled
	// worker count, the ensemble workers and the closed-loop clients.
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, o.nproc, runtime.Version())
	oc, err := w.run(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	cat := endToEnd
	if o.trace {
		cat = perLayer
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := WriteSpans(path, oc.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		printSelfTable(stdout, Summarize(oc.spans))
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(oc.spans), path)
	}
	if oc.attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation completed")
		return 1
	}
	fmt.Fprintf(stdout, "# failed_ratio %.6f (failed %d of %d attempted, checks included)\n",
		float64(oc.failed)/float64(oc.attempted), oc.failed, oc.attempted)
	res, err := buildResult(cat, oc.vals, oc.attempted, oc.failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range cat {
		fmt.Fprintf(stdout, "# metric %-44s %16.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// errNoOps reports a timed phase that completed no operation.
var errNoOps = errors.New("the timed phase completed no operation")

// phase is the length of a timed phase lasting share of the run's seconds.
func (o options) phase(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}
