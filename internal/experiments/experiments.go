// Package experiments defines each evaluation artifact of the paper —
// Figures 2, 3 and 4 and the Section 2-6 claims, E1-E11 in DESIGN.md
// section 4 — exactly once. cmd/foam-bench prints every Result's report
// and the root package's BenchmarkExperiments reports every Result's
// metrics, so the two always measure the same thing.
package experiments

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"foam"
	"foam/internal/atmos"
	"foam/internal/baseline"
	"foam/internal/diag"
	"foam/internal/ocean"
	"foam/internal/spectral"
)

// Size selects an experiment's resolution and simulated duration.
type Size int

const (
	// Short is sized for `go test -bench` smoke runs.
	Short Size = iota
	// Reduced is the foam-bench default: reduced grids, minutes in total.
	Reduced
	// Full is foam-bench -full: the paper's configuration and longer runs.
	Full
)

// pick returns the value of a sized parameter for size s.
func pick[T any](s Size, short, reduced, full T) T {
	switch s {
	case Short:
		return short
	case Reduced:
		return reduced
	}
	return full
}

// Metric is one named scalar outcome. The name doubles as the benchmark
// unit, so it carries no whitespace.
type Metric struct {
	Name  string
	Value float64
}

// Result is an experiment's outcome: its metrics and a text report
// (tables, Gantt charts, ASCII maps).
type Result struct {
	Metrics []Metric
	Report  bytes.Buffer
}

func (r *Result) metric(name string, v float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v})
}

// Experiment is one entry of All. Run takes the size and the coupled
// model's worker-pool size (bit-identical for any value).
type Experiment struct {
	ID, Title string
	Run       func(s Size, workers int) (*Result, error)
}

// All lists the experiments in DESIGN.md order.
var All = []Experiment{
	{"E1", "Figure 2: per-processor time allocation", E1},
	{"E2", "Figure 3: annual-mean SST vs climatology", E2},
	{"E3", "Figure 4: two-basin low-frequency variability", E3},
	{"E4", "Section 5: coupled throughput and scaling", E4},
	{"E5", "Section 4.2: ocean throughput vs conventional baseline", E5},
	{"E6", "Section 5: atmosphere/ocean cost ratio", E6},
	{"E7", "Section 5: FOAM vs conventional coupled model", E7},
	{"E8", "Section 2: cost vs resolution (inverse-cube law)", E8},
	{"E9", "Section 4.3: closed hydrological cycle", E9},
	{"E10", "Section 4.2: ocean speed-technique ablations", E10},
	{"E11", "Section 6: CCM2 vs CCM3 physics (tropical Pacific)", E11},
}

// coupled is the coupled configuration for s: reduced unless Full.
func coupled(s Size, workers int) foam.Config {
	cfg := foam.ReducedConfig()
	if s == Full {
		cfg = foam.DefaultConfig()
	}
	cfg.Workers = workers
	return cfg
}

// oceanGrid is the standalone-ocean configuration for s: 64x64x8 unless
// Full, which keeps the paper's 128x128x16.
func oceanGrid(s Size) ocean.Config {
	cfg := ocean.DefaultConfig()
	if s != Full {
		cfg.NLat, cfg.NLon, cfg.NLev = 64, 64, 8
	}
	return cfg
}

// oceanSamples is the number of timed ocean steps per cost estimate.
func oceanSamples(s Size) int { return pick(s, 2, 3, 3) }

// E1 — Figure 2: trace a coupled run on 16+1 and 32+2 ranks; the ocean
// keeps up with 16 atmosphere ranks but not with 32 in the paper's cost
// ratio (the measured ratio is E6).
func E1(s Size, workers int) (*Result, error) {
	r := &Result{}
	w := &r.Report
	for _, spec := range []foam.ParallelSpec{foam.DefaultSpec(), {AtmRanks: 32, OcnRanks: 2, Link: foam.SPLink}} {
		res, _, err := foam.RunTraced(coupled(s, workers), pick(s, 0.5, 1.0, 1.0), spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "\n--- %d atm + %d ocn ranks: speedup %.0fx, efficiency %.2f ---\n",
			spec.AtmRanks, spec.OcnRanks, res.Speedup, res.Efficiency)
		diag.Gantt(w, res.Comms, 100)
		diag.PrintSegmentTable(w, res.Comms)
		// The paper's claim: does the ocean rank finish before the
		// atmosphere needs it?
		busy := diag.SegmentTotals(res.Comms)["ocean"] / float64(spec.OcnRanks)
		verdict := "keeps up"
		if busy >= 0.95*res.MachineTime {
			verdict = "is the bottleneck"
		}
		fmt.Fprintf(w, "ocean busy %.3fs vs machine time %.3fs (ocean %s)\n", busy, res.MachineTime, verdict)
		tag := fmt.Sprintf("-%d+%d", spec.AtmRanks, spec.OcnRanks)
		r.metric("x-realtime"+tag, res.Speedup)
		r.metric("efficiency"+tag, res.Efficiency)
		r.metric("ocean-busy-frac"+tag, busy/res.MachineTime)
	}
	return r, nil
}

// E2 — Figure 3: compare the model's annual-mean SST (the mean of the last
// min(12, months) monthly means) against the observed climatology.
func E2(s Size, workers int) (*Result, error) {
	m, err := foam.New(coupled(s, workers))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	r := &Result{}
	w := &r.Report
	months := pick(s, 2, 12, 24)
	fmt.Fprintf(w, "running %d simulated months for the annual mean...\n", months)
	series := m.MonthlyMeanSST(months)
	last := series[len(series)-min(12, months):]
	ann := make([]float64, len(series[0]))
	for _, row := range last {
		for c, v := range row {
			ann[c] += v / float64(len(last))
		}
	}
	cmp := m.CompareSST(ann)
	fmt.Fprintf(w, "global bias:          %+.2f K\n", cmp.Bias)
	fmt.Fprintf(w, "RMSE:                 %.2f K\n", cmp.RMSE)
	fmt.Fprintf(w, "pattern correlation:  %.3f\n", cmp.PatternCorr)
	g := m.Ocn.Grid()
	diag.AsciiMap(w, g, cmp.Model, cmp.OceanMask, 96, "\n(a) model annual-mean SST")
	diag.AsciiMap(w, g, cmp.Observed, cmp.OceanMask, 96, "\n(b) observed climatology (synthetic stand-in)")
	diag.AsciiMap(w, g, cmp.Difference, cmp.OceanMask, 96, "\n(c) model minus observed")
	r.metric("bias-K", cmp.Bias)
	r.metric("rmse-K", cmp.RMSE)
	r.metric("pattern-corr", cmp.PatternCorr)
	return r, nil
}

// E3 — Figure 4: the 60-month low-pass rotated-EOF analysis of a monthly
// SST series. A record no longer than the filter's 2x30-month window (Short
// and Reduced) is analyzed unfiltered.
func E3(s Size, workers int) (*Result, error) {
	m, err := foam.New(coupled(s, workers))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	r := &Result{}
	w := &r.Report
	months := pick(s, 15, 60, 240)
	fmt.Fprintf(w, "running %d simulated months...\n", months)
	series := m.MonthlyMeanSST(months)
	res, err := foam.AnalyzeVariability(m.Ocn.Grid(), m.Ocn.Mask(), series, 60)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	fmt.Fprintf(w, "leading rotated EOF explains %.1f%% of low-passed variance (paper: ~15%%)\n", 100*res.VarFrac)
	fmt.Fprintf(w, "two-basin loading product: %+.2f (paper: positive, N.Atlantic with N.Pacific)\n", res.BasinCorr)
	mask := make([]bool, len(m.Ocn.Mask()))
	for c, v := range m.Ocn.Mask() {
		mask[c] = v > 0
	}
	diag.AsciiMap(w, m.Ocn.Grid(), res.Pattern, mask, 96, "\n(a) spatial pattern")
	r.metric("varfrac", res.VarFrac)
	r.metric("two-basin", res.BasinCorr)
	return r, nil
}

// E4 — coupled throughput and parallel efficiency across simulated machine
// sizes.
func E4(s Size, workers int) (*Result, error) {
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "%6s %6s %6s %12s %12s %10s\n", "nodes", "atm", "ocn", "speedup", "sim-days/day", "efficiency")
	for _, spec := range []foam.ParallelSpec{
		{AtmRanks: 4, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 8, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 16, OcnRanks: 1, Link: foam.SPLink},
		{AtmRanks: 32, OcnRanks: 2, Link: foam.SPLink},
		{AtmRanks: 64, OcnRanks: 2, Link: foam.SPLink},
	} {
		res, _, err := foam.RunTraced(coupled(s, workers), pick(s, 0.25, 0.5, 1.0), spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%6d %6d %6d %11.0fx %12.1f %9.2f\n",
			spec.AtmRanks+spec.OcnRanks, spec.AtmRanks, spec.OcnRanks,
			res.Speedup, res.Speedup, res.Efficiency)
		tag := fmt.Sprintf("-%d+%d", spec.AtmRanks, spec.OcnRanks)
		r.metric("x-realtime"+tag, res.Speedup)
		r.metric("efficiency"+tag, res.Efficiency)
	}
	fmt.Fprintln(w, "(paper: near-linear over 8/16/32 atmosphere ranks; collapse when the")
	fmt.Fprintln(w, " latitude-pair decomposition runs out — visible here as falling efficiency)")
	return r, nil
}

// E5 — standalone ocean throughput and the advantage over the conventional
// unsplit formulation at the same resolution.
func E5(s Size, _ int) (*Result, error) {
	cfg := oceanGrid(s)
	foamSec, baseSec, ratio, err := baseline.SpeedAdvantage(cfg, nil, oceanSamples(s))
	if err != nil {
		return nil, err
	}
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "grid %dx%dx%d\n", cfg.NLat, cfg.NLon, cfg.NLev)
	fmt.Fprintf(w, "FOAM formulation:          %8.3f s per simulated day => %8.0fx real time (1 core)\n",
		foamSec, 86400/foamSec)
	fmt.Fprintf(w, "conventional (unsplit):    %8.3f s per simulated day => %8.0fx real time (1 core)\n",
		baseSec, 86400/baseSec)
	fmt.Fprintf(w, "computation-per-simulated-time advantage: %.1fx (paper: ~10x)\n", ratio)
	r.metric("x-realtime", 86400/foamSec)
	r.metric("baseline-x-realtime", 86400/baseSec)
	r.metric("advantage", ratio)
	return r, nil
}

// costPerDay times one simulated day of a coupled model after a quarter-day
// warm-up and splits each step's wall time into the ocean's own step
// (Ocn.LastStepSeconds, on steps that ran it) and the rest: atmosphere
// plus coupler.
func costPerDay(cfg foam.Config) (atmCpl, ocn float64, err error) {
	m, err := foam.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()
	m.StepDays(0.25)
	for i := 0; i < int(86400/cfg.Atm.Dt); i++ {
		n := m.Ocn.StepCount()
		t0 := time.Now()
		m.Step()
		dt := time.Since(t0).Seconds()
		if m.Ocn.StepCount() != n {
			ocn += m.Ocn.LastStepSeconds()
			dt -= m.Ocn.LastStepSeconds()
		}
		atmCpl += dt
	}
	return atmCpl, ocn, nil
}

// E6 — atmosphere (with the coupler) vs ocean cost per simulated day
// (paper: ~16:1). The ratio is the claim, so Reduced runs the paper's R15 +
// 128x128 configuration too; Short runs the reduced one.
func E6(s Size, workers int) (*Result, error) {
	cfg := foam.DefaultConfig()
	if s == Short {
		cfg = foam.ReducedConfig()
	}
	cfg.Workers = workers
	atmCpl, ocn, err := costPerDay(cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "atmosphere+coupler: %.3f s per simulated day\n", atmCpl)
	fmt.Fprintf(w, "ocean:              %.3f s per simulated day\n", ocn)
	fmt.Fprintf(w, "ratio:              %.1f : 1  (paper: ~16:1 for R15 vs 128x128)\n", atmCpl/ocn)
	r.metric("atm+cpl-s/simday", atmCpl)
	r.metric("ocean-s/simday", ocn)
	r.metric("atm:ocn", atmCpl/ocn)
	return r, nil
}

// E7 — FOAM vs a conventional coupled model: the same atmosphere and
// coupler (E6's split of the measured step) plus the unsplit ocean at the
// same resolution.
func E7(s Size, workers int) (*Result, error) {
	cfg := coupled(s, workers)
	atmCpl, ocn, err := costPerDay(cfg)
	if err != nil {
		return nil, err
	}
	oc := ocean.BaselineConfig()
	oc.NLat, oc.NLon, oc.NLev = cfg.Ocn.NLat, cfg.Ocn.NLon, cfg.Ocn.NLev
	oc.LatSouth, oc.LatNorth = cfg.Ocn.LatSouth, cfg.Ocn.LatNorth
	baseOcn, err := baseline.OceanSecondsPerDay(oc, nil, oceanSamples(s))
	if err != nil {
		return nil, err
	}
	foamSec, convSec := atmCpl+ocn, atmCpl+baseOcn
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "FOAM coupled:          %8.2f s per simulated day => %7.0fx real time (1 core)\n",
		foamSec, 86400/foamSec)
	fmt.Fprintf(w, "conventional coupled:  %8.2f s per simulated day => %7.0fx real time (1 core)\n",
		convSec, 86400/convSec)
	fmt.Fprintf(w, "throughput advantage: %.1fx (paper: >= 3x vs NCAR CSM)\n", convSec/foamSec)
	r.metric("foam-s/simday", foamSec)
	r.metric("conventional-s/simday", convSec)
	r.metric("advantage", convSec/foamSec)
	return r, nil
}

// E8 — atmosphere cost per simulated day across truncations and the fitted
// power law (paper: inverse cube of the horizontal spacing).
func E8(s Size, _ int) (*Result, error) {
	truncs := pick(s, []int{5, 10}, []int{5, 8, 10, 15}, []int{5, 8, 10, 15})
	days := pick(s, 0.25, 0.5, 0.5)
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "%6s %10s %10s %14s\n", "trunc", "grid", "dt(s)", "s/sim-day")
	costs := make([]float64, len(truncs))
	for i, M := range truncs {
		cfg := atmos.ConfigForTruncation(spectral.Rhomboidal(M), 8)
		cfg.Adiabatic = false
		m, err := atmos.New(cfg, nil)
		if err != nil {
			return nil, err
		}
		steps := int(days * 86400 / cfg.Dt)
		m.Step() // warm up
		t0 := time.Now()
		for k := 0; k < steps; k++ {
			m.Step()
		}
		costs[i] = time.Since(t0).Seconds() / days
		fmt.Fprintf(w, "R%-5d %6dx%-3d %10.0f %14.2f\n", M, cfg.NLat, cfg.NLon, cfg.Dt, costs[i])
		r.metric(fmt.Sprintf("s/simday-R%d", M), costs[i])
	}
	last := len(truncs) - 1
	slope := math.Log(costs[last]/costs[0]) / math.Log(float64(truncs[last])/float64(truncs[0]))
	fmt.Fprintf(w, "fitted exponent: cost ~ (spacing)^-%.2f (paper: inverse cube)\n", slope)
	r.metric("cost-exponent", slope)
	return r, nil
}

// E9 — hydrological closure: the river-routing residual of the land water
// budget after a spin-up.
func E9(s Size, workers int) (*Result, error) {
	m, err := foam.New(coupled(s, workers))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	m.StepDays(pick(s, 1.0, 2.0, 2.0))
	m.Cpl.ResetBudget()
	store0 := m.Cpl.River.TotalStorage() * 1000
	m.StepDays(pick(s, 2.0, 5.0, 5.0))
	b := m.Cpl.Budget()
	store1 := m.Cpl.River.TotalStorage() * 1000
	resid := b.Runoff - b.RiverToOcean - (store1 - store0)
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "precipitation on land:  %12.4e kg\n", b.Precip)
	fmt.Fprintf(w, "evaporation from land:  %12.4e kg\n", b.Evap)
	fmt.Fprintf(w, "runoff to rivers:       %12.4e kg\n", b.Runoff)
	fmt.Fprintf(w, "river inflow to ocean:  %12.4e kg\n", b.RiverToOcean)
	fmt.Fprintf(w, "routing residual:       %12.4e kg (%.4f%% of runoff)\n", resid, 100*resid/math.Max(b.Runoff, 1))
	r.metric("routing-residual-frac", math.Abs(resid)/math.Max(b.Runoff, 1))
	r.metric("precip-kg", b.Precip)
	return r, nil
}

// E10 — ablate the ocean's three speed techniques, down to the unsplit
// baseline.
func E10(s Size, _ int) (*Result, error) {
	base := oceanGrid(s)
	variants := []struct {
		key, name string
		mod       func(*ocean.Config)
	}{
		{"foam", "FOAM (split, slowdown 16, subcycled)", func(c *ocean.Config) {}},
		{"slowdown4", "slowdown 4", func(c *ocean.Config) {
			c.Slowdown = 4
			c.DtBaro = c.DtBaro / 4
		}},
		{"nosubcycle", "no subcycling (internal = tracer step)", func(c *ocean.Config) {
			c.DtInternal = c.DtTracer / 8
			c.DtBaro = c.DtInternal / 2
			c.DtTracer = c.DtInternal // everything at the short step
		}},
		{"unsplit", "unsplit + physical gravity (baseline)", func(c *ocean.Config) {
			*c = ocean.BaselineConfig()
			c.NLat, c.NLon, c.NLev = base.NLat, base.NLon, base.NLev
		}},
	}
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "%-42s %14s %12s\n", "variant", "s/sim-day", "x realtime")
	for _, v := range variants {
		cfg := base
		v.mod(&cfg)
		sec, err := baseline.OceanSecondsPerDay(cfg, nil, oceanSamples(s))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Fprintf(w, "%-42s %14.3f %12.0f\n", v.name, sec, 86400/sec)
		r.metric("x-realtime-"+v.key, 86400/sec)
	}
	return r, nil
}

// E11 — the paper's Section 6 story: swapping CCM2 moisture physics for
// CCM3 "vastly improved" the tropical Pacific. Run both physics versions
// and score the last monthly-mean SST in the tropical Pacific.
func E11(s Size, workers int) (*Result, error) {
	months := pick(s, 1, 6, 24)
	r := &Result{}
	w := &r.Report
	fmt.Fprintf(w, "%-6s %12s %12s %14s %22s\n", "phys", "trop bias K", "trop RMSE K", "global corr", "warmpool-coldtongue K")
	for _, phys := range []atmos.PhysicsVersion{atmos.PhysicsCCM2, atmos.PhysicsCCM3} {
		cfg := coupled(s, workers)
		cfg.Atm.Physics = phys
		m, err := foam.New(cfg)
		if err != nil {
			return nil, err
		}
		series := m.MonthlyMeanSST(months)
		sst := series[len(series)-1]
		obs := m.CompareSST(sst)
		g := m.Ocn.Grid()
		m.Close()
		var wpSum, wpW, ctSum, ctW float64
		var berr, brms, bw float64
		for j := 0; j < g.NLat(); j++ {
			latD := g.Lats[j] * 180 / math.Pi
			if latD < -15 || latD > 15 {
				continue
			}
			for i := 0; i < g.NLon(); i++ {
				lonD := g.Lons[i] * 180 / math.Pi
				if lonD > 180 {
					lonD -= 360
				}
				c := g.Index(j, i)
				if !obs.OceanMask[c] {
					continue
				}
				a := g.Area(j, i)
				if lonD > 120 && lonD < 170 { // warm pool
					wpSum += sst[c] * a
					wpW += a
				}
				if lonD > -140 && lonD < -90 { // cold tongue
					ctSum += sst[c] * a
					ctW += a
				}
				d := sst[c] - obs.Observed[c]
				berr += d * a
				brms += d * d * a
				bw += a
			}
		}
		bias, rmse := berr/bw, math.Sqrt(brms/bw)
		contrast := wpSum/math.Max(wpW, 1) - ctSum/math.Max(ctW, 1)
		fmt.Fprintf(w, "%-6s %12.2f %12.2f %14.3f %22.2f\n", phys, bias, rmse, obs.PatternCorr, contrast)
		r.metric(phys.String()+"-trop-bias-K", bias)
		r.metric(phys.String()+"-trop-rmse-K", rmse)
		r.metric(phys.String()+"-global-corr", obs.PatternCorr)
		r.metric(phys.String()+"-warmpool-coldtongue-K", contrast)
	}
	fmt.Fprintln(w, "(paper: CCM3 moisture physics vastly improved the tropical Pacific;")
	fmt.Fprintln(w, " observed warm pool - cold tongue contrast is ~4-5 K)")
	return r, nil
}
