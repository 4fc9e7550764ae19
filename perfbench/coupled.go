package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"foam/internal/core"
	"foam/internal/scenario"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 5

// windowCycles is the length of the simulated window coupled-r15 replays:
// six 12-hour cycles after the warm-up cycle, simulated days 0.5 to 3.5,
// the horizon of the scenario conformance gate (E16). Every run steps the
// same states whatever its speed, so the work and the final state a run
// checks do not depend on how many cycles fit in --seconds.
const windowCycles = 6

// runCoupled is the coupled-r15 workload: the paper-foam scenario (R15
// atmosphere over the 128x128x16 ocean, lag 0) on the default pooled
// executor at nproc workers, timed in whole schedule cycles after one
// warm-up cycle.
func runCoupled(o options, out io.Writer) (*outcome, error) {
	sp, ok := scenario.Lookup("paper-foam")
	if !ok {
		return nil, fmt.Errorf("paper-foam scenario missing from the registry")
	}
	var tr *Tracer
	if o.trace {
		tr = NewTracer()
	}
	oc := &outcome{vals: map[string]float64{}}
	heap := &heapPeak{}

	var m *core.Model
	var tb *core.Tables
	var setup []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		mm, tt, err := setupModel(sp, o.nproc, tr)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if m != nil {
			m.Close()
		}
		m, tb = mm, tt
	}
	defer m.Close()
	runtime.GC() // the discarded set-up copies are not part of the run
	cfg := m.Config()
	cyc := cycleTicks(cfg)
	stepCycle := func() {
		for i := 0; i < cyc; i++ {
			m.Step()
		}
	}
	stepCycle() // warm-up
	start := m.Checkpoint()
	inWindow := 0
	// rewind restores the window's start once the window is used up.
	rewind := func() error {
		if inWindow < windowCycles {
			return nil
		}
		inWindow = 0
		return m.Restore(start)
	}
	timeCycle := func(f func()) float64 {
		inWindow++
		t0 := time.Now()
		f()
		ms := since(t0)
		heap.sample()
		return ms
	}
	// finalCycle times one more cycle and checks it: checkpoint before it,
	// replay it with Model.Step on a Workers=1 model and require the same
	// bytes, then evaluate the E16 predicates and the water budget over it.
	// The caller rewinds first.
	finalCycle := func(step func(), state func() *core.Checkpoint) float64 {
		before := state()
		m.Cpl.ResetBudget()
		store := waterStore(m)
		ms := timeCycle(step)
		ref, err := replay(cfg, tb, before, cyc)
		if err == nil {
			err = sameState("final cycle vs Workers=1 Model.Step replay", ref, state())
		}
		oc.check(out, "replay", err)
		oc.check(out, "E16 surface predicates", surfaceCheck(m))
		oc.check(out, "water budget", budgetCheck(m, store))
		return ms
	}
	cycleSimS := float64(cyc) * cfg.Atm.Dt
	yearDays := cfg.Atm.YearDays
	if yearDays <= 0 { // unset: the model's 360-day calendar
		yearDays = 360
	}

	if !o.trace {
		var samples []float64
		for end := time.Now().Add(o.phase(1)); len(samples) == 0 || time.Now().Before(end); {
			if err := rewind(); err != nil {
				return nil, err
			}
			samples = append(samples, timeCycle(stepCycle))
		}
		heap.settle()
		if err := rewind(); err != nil {
			return nil, err
		}
		samples = append(samples, finalCycle(stepCycle, m.Checkpoint))
		oc.attempted += len(samples)

		p50 := median(samples)
		oc.vals["setup_s"] = median(setup)
		oc.vals["heap_peak_mb"] = heap.mb()
		oc.vals["ops_per_s"] = 1000 * float64(len(samples)) / sum(samples)
		fmt.Fprintf(out, "# coupled-r15: %d cycles of %d ticks (%.0f simulated s) at %d workers; cycle p50 %.2f ms, min %.2f, max %.2f\n",
			len(samples), cyc, cycleSimS, o.nproc, p50, percentile(samples, 0), percentile(samples, 100))
		fmt.Fprintf(out, "# sypd %.4f simulated years/day (from the median cycle)\n", cycleSimS/(p50/1000)/yearDays)
		fmt.Fprintf(out, "# setup_s %.4f s (median of %d), heap_peak_mb %.2f MB\n", median(setup), setupReps, heap.mb())
		return oc, nil
	}

	// Traced mode: untraced Model.Step cycles alternate with the same
	// cycles driven layer by layer with spans; after each driven cycle the
	// model is restored from its own aligned checkpoint, which re-phases
	// the executor for the next Model.Step cycle.
	var untraced, traced []float64
	for end := time.Now().Add(o.phase(0.6)); len(traced) == 0 || time.Now().Before(end); {
		if err := rewind(); err != nil {
			return nil, err
		}
		untraced = append(untraced, timeCycle(stepCycle))
		if err := rewind(); err != nil {
			return nil, err
		}
		drv := newLayerDriver(m, ".wN")
		traced = append(traced, timeCycle(func() { drv.cycle(tr, int64(len(traced))) }))
		if err := m.Restore(drv.aligned()); err != nil {
			return nil, err
		}
	}
	if err := rewind(); err != nil {
		return nil, err
	}
	drvN := newLayerDriver(m, ".wN")
	traced = append(traced, finalCycle(func() { drvN.cycle(tr, int64(len(traced))) }, drvN.aligned))
	oc.attempted += len(untraced) + len(traced)
	after := drvN.aligned()

	// Worker sweep: the same drive on a Workers=1 copy, one warm-up cycle
	// and one traced cycle.
	cfg1 := cfg
	cfg1.Workers = 1
	m1, err := core.NewWithTables(cfg1, tb)
	if err != nil {
		return nil, err
	}
	defer m1.Close()
	if err := m1.Restore(after); err != nil {
		return nil, err
	}
	drv1 := newLayerDriver(m1, ".w1")
	drv1.cycle(nil, -1) // warm the fresh model's memory untraced
	drv1.cycle(tr, -1)

	saveBytes, err := checkpointProbe(m, tb, 3, tr)
	if err != nil {
		return nil, err
	}
	shape := kernelProbe(tb.Spectral, cfg.Atm.NLev, 200, o.seed, tr)

	// The serving layers on this workload's configuration: one member and
	// one table-adopting member behind the HTTP handler.
	d, err := startDaemon([]scenario.Spec{sp, sp}, o.nproc, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	snapBytes, waitMs, err := ensembleProbe(d, d.ids[1], 3, tr)
	if err != nil {
		return nil, err
	}
	stats := d.s.Stats()

	oc.spans = tr.Spans()
	layerVals(oc.vals, oc.spans, ".wN")
	oc.vals["trace.overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	oc.vals["core.save_bytes"] = float64(saveBytes)
	oc.vals["spectral.analyze_many_computed_bytes"] = float64(shape.analyzeBytes())
	oc.vals["spectral.synthesize_uv_many_computed_bytes"] = float64(shape.synthUVBytes())
	oc.vals["ensemble.wait_ms"] = waitMs
	oc.vals["ensemble.table_sets"] = float64(stats.TableSets)
	oc.vals["serve.snapshot_bytes"] = float64(snapBytes)
	fmt.Fprintf(out, "# spectral batch: %s\n", shape)
	fmt.Fprintf(out, "# overhead: untraced cycle p50 %.2f ms (%d), traced %.2f ms (%d)\n",
		median(untraced), len(untraced), median(traced), len(traced))
	return oc, nil
}
