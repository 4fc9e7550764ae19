package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// members is the ensemble size of serve-r5 and lifecycle-r5.
	members = 16
	// spinIntervals is how many coupling intervals set-up advances every
	// member before timing starts (warm-up, not part of setup_s).
	spinIntervals = 2
	// probeCycles is how many schedule cycles the traced r5 layer probe
	// drives at each worker count.
	probeCycles = 10
)

// runEnsemble is serve-r5 (lifecycle false) or lifecycle-r5: 16 seeded
// perturbed-physics r5 members sharing one table set, served in-process
// over loopback HTTP to a closed loop of nproc clients.
func runEnsemble(o options, out io.Writer, lifecycle bool) (*outcome, error) {
	specs := memberSpecs(o.seed, members)
	var tr *Tracer
	if o.trace {
		tr = NewTracer()
	}
	oc := &outcome{vals: map[string]float64{}}
	heap := &heapPeak{}

	var d *daemon
	var setup []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		dd, err := startDaemon(specs, o.nproc, tr)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if d != nil {
			d.close()
		}
		d = dd
	}
	defer d.close()
	runtime.GC() // the discarded set-up copies are not part of the run
	if err := d.spinUp(spinIntervals, o.nproc); err != nil {
		return nil, err
	}
	steps := make([]int, members)
	for i := range steps {
		steps[i] = spinIntervals * d.cfgs[i].OceanEvery
	}
	var snapBytes atomic.Int64
	op := func(t *Tracer) func(c, i int, req int64) (float64, map[string]float64, error) {
		if lifecycle {
			return lifecycleOp(d, t, &snapBytes)
		}
		return serveOp(d, t, steps)
	}
	loop := func(share float64, t *Tracer) (*loopStats, error) {
		ls := closedLoop(o.nproc, o.seed, members, o.phase(share), heap, op(t))
		oc.attempted += ls.attempted
		oc.failed += ls.failed
		if ls.firstErr != nil {
			fmt.Fprintf(out, "# OPERATION FAILED (%d of %d): %v\n", ls.failed, ls.attempted, ls.firstErr)
		}
		if len(ls.opMs) == 0 {
			return nil, errNoOps
		}
		return ls, nil
	}
	// gate is the per-run correctness check after the loop: for serve-r5 a
	// seed-picked member against a standalone model; for lifecycle-r5 the
	// per-operation SST comparison already ran, and the member set must be
	// back to its starting size.
	pick := rand.New(rand.NewPCG(o.seed, 2)).IntN(members)
	gate := func() {
		if lifecycle {
			var err error
			if n := d.s.Stats().Members; n != members {
				err = fmt.Errorf("%d members after the loop, want %d", n, members)
			}
			oc.check(out, "member set restored", err)
			return
		}
		oc.check(out, fmt.Sprintf("member %d vs standalone core.New", pick), memberMatchesStandalone(d, pick))
	}

	if !o.trace {
		ls, err := loop(1, nil)
		if err != nil {
			return nil, err
		}
		heap.settle()
		gate()
		oc.vals["setup_s"] = median(setup)
		oc.vals["heap_peak_mb"] = heap.mb()
		oc.vals["ops_per_s"] = float64(len(ls.opMs)) / ls.elapsed.Seconds()
		printEnsembleSummary(out, o, ls, lifecycle, d.cfgs[0].OceanEvery, snapBytes.Load())
		fmt.Fprintf(out, "# setup_s %.4f s (median of %d), heap_peak_mb %.2f MB\n", median(setup), setupReps, heap.mb())
		return oc, nil
	}

	// Traced mode: the same loop untraced (overhead reference) and traced,
	// in alternating slices so drift in machine speed cancels, then the layer, checkpoint, kernel and scheduler probes on the
	// seed-picked member's configuration.
	var untraced, traced []float64
	for k := 0; k < 3; k++ {
		ls, err := loop(0.1, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ls.opMs...)
		d.sh.tr.Store(tr)
		ls, err = loop(0.1, tr)
		d.sh.tr.Store(nil)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ls.opMs...)
	}
	gate()

	m1, tb, check, err := layerProbe(specs[pick], o.nproc, probeCycles, tr)
	if err != nil {
		return nil, err
	}
	defer m1.Close()
	oc.check(out, "layer drive replay", check)
	saveBytes, err := checkpointProbe(m1, tb, 10, tr)
	if err != nil {
		return nil, err
	}
	shape := kernelProbe(tb.Spectral, m1.Config().Atm.NLev, 500, o.seed, tr)
	snap, waitMs, err := ensembleProbe(d, d.ids[pick], 10, tr)
	if err != nil {
		return nil, err
	}

	oc.spans = tr.Spans()
	layerVals(oc.vals, oc.spans, ".w1")
	oc.vals["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	oc.vals["core.save_bytes"] = float64(saveBytes)
	oc.vals["spectral.analyze_many_computed_bytes"] = float64(shape.analyzeBytes())
	oc.vals["spectral.synthesize_uv_many_computed_bytes"] = float64(shape.synthUVBytes())
	oc.vals["ensemble.wait_ms"] = waitMs
	oc.vals["ensemble.table_sets"] = float64(d.s.Stats().TableSets)
	oc.vals["serve.snapshot_bytes"] = float64(snap)
	fmt.Fprintf(out, "# spectral batch: %s\n", shape)
	fmt.Fprintf(out, "# overhead: untraced op p50 %.3f ms (%d), traced %.3f ms (%d)\n",
		median(untraced), len(untraced), median(traced), len(traced))
	return oc, nil
}

// printEnsembleSummary prints the workload's own named metrics with units
// and sample counts.
func printEnsembleSummary(out io.Writer, o options, ls *loopStats, lifecycle bool, every int, snap int64) {
	n := len(ls.opMs)
	secs := ls.elapsed.Seconds()
	fmt.Fprintf(out, "# closed loop: %d clients, %d members, %d ops in %.3f s\n", o.nproc, members, n, secs)
	tail := func(xs []float64) string {
		if label, v, ok := tailPercentile(xs); ok {
			return fmt.Sprintf("%s %.3f ms", label, v)
		}
		return "no tail percentile (fewer than 100 samples)"
	}
	if lifecycle {
		fmt.Fprintf(out, "# lifecycles_per_s %.4f 1/s\n", float64(n)/secs)
		fmt.Fprintf(out, "# lifecycle_ms p50 %.3f ms, %s (n=%d)\n", median(ls.opMs), tail(ls.opMs), n)
		fmt.Fprintf(out, "# snapshot_ms_p50 %.3f ms, %s (n=%d); snapshot %d B\n",
			median(ls.extraMs["snapshot"]), tail(ls.extraMs["snapshot"]), len(ls.extraMs["snapshot"]), snap)
		fmt.Fprintf(out, "# resume_ms_p50 %.3f ms, %s (n=%d)\n",
			median(ls.extraMs["resume"]), tail(ls.extraMs["resume"]), len(ls.extraMs["resume"]))
		return
	}
	fmt.Fprintf(out, "# steps_per_s %.4f atmosphere steps/s (%d per advance)\n", float64(n*every)/secs, every)
	fmt.Fprintf(out, "# advance_ms_p50 %.3f ms, advance_ms_p90 %.3f ms, %s (n=%d)\n",
		median(ls.opMs), percentile(ls.opMs, 90), tail(ls.opMs), n)
	fmt.Fprintf(out, "# diag_ms_p50 %.3f ms (n=%d)\n", median(ls.extraMs["diag"]), len(ls.extraMs["diag"]))
}
