package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"foam/internal/core"
	"foam/internal/ocean"
	"foam/internal/scenario"
	"foam/internal/spectral"
)

// cycleTicks is one full schedule cycle, lcm(OceanEvery, RadiationEvery)
// ticks, so every cycle holds the same mix of plain, radiation and
// coupling ticks.
func cycleTicks(cfg core.Config) int {
	a, b := cfg.OceanEvery, cfg.Atm.RadiationEvery
	g, h := a, b
	for h != 0 {
		g, h = h, g%h
	}
	return a / g * b
}

// layerDriver steps a coupled model by calling its layers directly, in the
// lag-0 program order core.Model.Step runs them: the atmosphere every
// tick; on the coupling tick the coupler drains the interval's forcing,
// the ocean steps under it, and the coupler absorbs the new ocean surface
// and drifts the sea ice with the surface currents. Each call is a span,
// so the trace splits a cycle by layer. The model's own step counter and
// executor phase do not move; aligned() gives the checkpoint Model.Step
// would have produced.
type layerDriver struct {
	m      *core.Model
	f      *ocean.Forcing // the program's forcing transfer buffer
	dt     float64        // coupling interval, s
	every  int
	rad    int
	tick   int
	suffix string
}

func newLayerDriver(m *core.Model, suffix string) *layerDriver {
	cfg := m.Config()
	return &layerDriver{
		m: m, f: ocean.NewForcing(m.Ocn.Grid().Size()),
		dt:    float64(cfg.OceanEvery) * cfg.Atm.Dt,
		every: cfg.OceanEvery, rad: cfg.Atm.RadiationEvery,
		tick: m.StepCount(), suffix: suffix,
	}
}

// cycle drives one schedule cycle under a root span carrying req.
func (d *layerDriver) cycle(tr *Tracer, req int64) {
	if d.tick%d.every != 0 {
		panic(fmt.Sprintf("layer drive starts mid-interval at tick %d", d.tick))
	}
	root := tr.Begin("core.cycle"+d.suffix, -1, req)
	n := cycleTicks(d.m.Config()) / d.every
	for k := 0; k < n; k++ {
		d.interval(tr, root, req)
	}
	tr.End(root)
}

func (d *layerDriver) interval(tr *Tracer, parent int, req int64) {
	iv := tr.Begin("core.interval"+d.suffix, parent, req)
	for t := 0; t < d.every; t++ {
		name := "atmos.step" + d.suffix
		if d.m.Atm.StepCount()%d.rad == 0 {
			name = "atmos.step_rad" + d.suffix
		}
		s := tr.Begin(name, iv, req)
		d.m.Atm.Step()
		tr.End(s)
		d.tick++
	}
	s := tr.Begin("coupler.drain"+d.suffix, iv, req)
	drained := d.m.Cpl.DrainOceanForcing(d.dt)
	tr.End(s)
	copy(d.f.TauX, drained.TauX)
	copy(d.f.TauY, drained.TauY)
	copy(d.f.Heat, drained.Heat)
	copy(d.f.FreshWater, drained.FreshWater)
	s = tr.Begin("ocean.step"+d.suffix, iv, req)
	d.m.Ocn.Step(d.f)
	tr.End(s)
	s = tr.Begin("coupler.absorb"+d.suffix, iv, req)
	d.m.Cpl.AbsorbOcean(d.m.Ocn)
	tr.End(s)
	u, v := d.m.Ocn.SurfaceCurrents()
	s = tr.Begin("coupler.advect_ice"+d.suffix, iv, req)
	d.m.Cpl.AdvectIce(u, v, d.dt)
	tr.End(s)
	tr.End(iv)
}

// aligned is the driven model's checkpoint with Step set to the ticks the
// driver ran, which is what Model.Step would have recorded.
func (d *layerDriver) aligned() *core.Checkpoint {
	ck := d.m.Checkpoint()
	ck.Step = d.tick
	return ck
}

// encode gob-encodes a checkpoint: the prognostic state as bytes.
func encode(ck *core.Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameState reports an error unless two checkpoints encode to the same
// bytes.
func sameState(what string, want, got *core.Checkpoint) error {
	a, err := encode(want)
	if err != nil {
		return err
	}
	b, err := encode(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: checkpoints differ (%d vs %d bytes, step %d vs %d)", what, len(a), len(b), want.Step, got.Step)
	}
	return nil
}

// replay restores from onto a fresh Workers=1 model, runs ticks steps with
// Model.Step and returns the resulting checkpoint: the reference every
// timed or layer-driven trajectory is compared against.
func replay(cfg core.Config, tb *core.Tables, from *core.Checkpoint, ticks int) (*core.Checkpoint, error) {
	cfg.Workers = 1
	m, err := core.NewWithTables(cfg, tb)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if err := m.Restore(from); err != nil {
		return nil, err
	}
	for i := 0; i < ticks; i++ {
		m.Step()
	}
	return m.Checkpoint(), nil
}

// setupModel compiles a scenario and builds its tables and model at the
// given worker count, with a span around each construction layer.
func setupModel(sp scenario.Spec, workers int, tr *Tracer) (*core.Model, *core.Tables, error) {
	s := tr.Begin("scenario.build", -1, 0)
	cfg, err := scenario.Build(sp)
	tr.End(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.Begin("core.build_tables", -1, 0)
	tb := core.BuildTables(cfg)
	tr.End(s)
	cfg.Workers = workers
	s = tr.Begin("core.new_model", -1, 0)
	m, err := core.NewWithTables(cfg, tb)
	tr.End(s)
	return m, tb, err
}

// checkpointProbe times the checkpoint path on m: capture, gob save, gob
// load and restore onto a fresh model (construction not timed).
func checkpointProbe(m *core.Model, tb *core.Tables, reps int, tr *Tracer) (saveBytes int, err error) {
	cfg := m.Config()
	cfg.Workers = 1
	for r := 0; r < reps; r++ {
		s := tr.Begin("core.checkpoint", -1, int64(r))
		ck := m.Checkpoint()
		tr.End(s)
		var buf bytes.Buffer
		s = tr.Begin("core.save", -1, int64(r))
		err = ck.Save(&buf)
		tr.End(s)
		if err != nil {
			return 0, err
		}
		saveBytes = buf.Len()
		s = tr.Begin("core.load", -1, int64(r))
		back, err := core.LoadCheckpoint(&buf)
		tr.End(s)
		if err != nil {
			return 0, err
		}
		fresh, err := core.NewWithTables(cfg, tb)
		if err != nil {
			return 0, err
		}
		s = tr.Begin("core.restore", -1, int64(r))
		err = fresh.Restore(back)
		tr.End(s)
		fresh.Close()
		if err != nil {
			return 0, err
		}
	}
	return saveBytes, nil
}

// kernelShape describes one fused spectral batch and the bytes a call
// moves, computed from array sizes (not measured): the grid and spectral
// arrays read or written once, plus one pass over each Legendre table
// (nlat rows of the table's stride) the kernel reads.
type kernelShape struct {
	fields, nlat, nlon, ncoef int
	pStride, hStride          int
}

func (k kernelShape) analyzeBytes() int {
	return k.fields*k.nlat*k.nlon*8 + k.fields*k.ncoef*16 + k.nlat*k.pStride*8
}

func (k kernelShape) synthUVBytes() int {
	return 2*k.fields*k.ncoef*16 + 2*k.fields*k.nlat*k.nlon*8 + k.nlat*(k.pStride+k.hStride)*8
}

func (k kernelShape) String() string {
	return fmt.Sprintf("fields=%d grid=%dx%d ncoef=%d P-stride=%d H-stride=%d (float64 grids, complex128 spectra)",
		k.fields, k.nlat, k.nlon, k.ncoef, k.pStride, k.hStride)
}

// kernelProbe times the fused batch kernels on warm tables: AnalyzeManyInto
// over one field per level, then SynthesizeUVManyInto over one vorticity/
// divergence pair per level, calls times each, serial.
func kernelProbe(master *spectral.Transform, fields, calls int, seed uint64, tr *Tracer) kernelShape {
	t := master.Share()
	ws := t.NewWorkspaceMany(fields)
	ng, nc := t.NLat*t.NLon, t.Trunc.Count()
	rng := rand.New(rand.NewPCG(seed, 7))
	grids := make([][]float64, fields)
	specs := make([][]complex128, fields)
	divs := make([][]complex128, fields)
	us := make([][]float64, fields)
	vs := make([][]float64, fields)
	for f := range grids {
		grids[f] = make([]float64, ng)
		for i := range grids[f] {
			grids[f][i] = rng.NormFloat64()
		}
		specs[f] = make([]complex128, nc)
		divs[f] = make([]complex128, nc)
		us[f] = make([]float64, ng)
		vs[f] = make([]float64, ng)
	}
	t.AnalyzeManyInto(specs, grids, ws) // warm
	rotated := append(append([][]float64(nil), grids[1:]...), grids[0])
	t.AnalyzeManyInto(divs, rotated, ws)
	for c := 0; c < calls; c++ {
		s := tr.Begin("spectral.analyze_many", -1, int64(c))
		t.AnalyzeManyInto(specs, grids, ws)
		tr.End(s)
	}
	t.SynthesizeUVManyInto(us, vs, specs, divs, ws) // warm
	for c := 0; c < calls; c++ {
		s := tr.Begin("spectral.synthesize_uv_many", -1, int64(c))
		t.SynthesizeUVManyInto(us, vs, specs, divs, ws)
		tr.End(s)
	}
	return kernelShape{
		fields: fields, nlat: t.NLat, nlon: t.NLon, ncoef: nc,
		pStride: spectral.NewLegendre(t.Trunc.M, t.Trunc.NMax()+1).TableSize(),
		hStride: spectral.NewLegendre(t.Trunc.M, t.Trunc.NMax()).TableSize(),
	}
}

// surfaceCheck evaluates the E16 stability predicates from public getters:
// finite diagnostics and SST, SST within [-5, 45] degC, winds under
// 250 m/s, currents under 3.5 m/s, and mean temperature in [200, 320] K.
func surfaceCheck(m *core.Model) error {
	d := m.Diagnostics()
	for name, v := range map[string]float64{
		"atm.MeanPs": d.Atm.MeanPs, "atm.MeanT": d.Atm.MeanT,
		"atm.MaxWind": d.Atm.MaxWind, "atm.KineticMean": d.Atm.KineticMean,
		"ocn.MeanSST": d.Ocn.MeanSST, "ocn.MaxSpeed": d.Ocn.MaxSpeed,
		"ocn.MeanKE": d.Ocn.MeanKE,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is not finite: %v", name, v)
		}
	}
	for c, v := range m.SST() {
		if math.IsNaN(v) || v < -5 || v > 45 {
			return fmt.Errorf("SST[%d] = %v outside [-5, 45] degC", c, v)
		}
	}
	if d.Atm.MaxWind > 250 {
		return fmt.Errorf("max wind %v m/s above 250", d.Atm.MaxWind)
	}
	if d.Ocn.MaxSpeed > 3.5 {
		return fmt.Errorf("max current %v m/s above 3.5", d.Ocn.MaxSpeed)
	}
	if d.Atm.MeanT < 200 || d.Atm.MeanT > 320 {
		return fmt.Errorf("mean temperature %v K outside [200, 320]", d.Atm.MeanT)
	}
	return nil
}

// waterStore is the land and river water store in kg.
func waterStore(m *core.Model) float64 {
	g := m.Atm.Grid()
	tot := 0.0
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if m.Cpl.Land.IsLand(c) {
				lf := m.Cpl.LandFraction()[c]
				tot += (m.Cpl.Land.SoilWater(c) + m.Cpl.Land.SnowDepth(c)) * 1000 * g.Area(j, i) * lf
			}
		}
	}
	return tot + m.Cpl.River.TotalStorage()*1000
}

// budgetCheck requires P - E - RiverToOcean to match the change of the
// land and river store since the budget was reset, within 5% of P.
func budgetCheck(m *core.Model, storeBefore float64) error {
	b := m.Cpl.Budget()
	dStore := waterStore(m) - storeBefore
	lhs := b.Precip - b.Evap - b.RiverToOcean
	if rel := math.Abs(lhs-dStore) / math.Max(b.Precip, 1); rel > 0.05 {
		return fmt.Errorf("water budget not closed: P-E-R=%v dStore=%v (rel %.3f)", lhs, dStore, rel)
	}
	return nil
}

// since returns the milliseconds elapsed since t0.
func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// layerProbe builds a standalone model of sp at nproc workers (setupReps
// times, with construction spans) and a Workers=1 twin on the same tables,
// drives both cycles schedule cycles layer by layer, alternating which goes
// first, and verifies the last cycle of each against a Model.Step replay.
// It returns the serial model, whose step counter the drive left behind,
// and the tables; the caller closes the model.
func layerProbe(sp scenario.Spec, nproc, cycles int, tr *Tracer) (m1 *core.Model, tb *core.Tables, check, err error) {
	var mN *core.Model
	for r := 0; r < setupReps; r++ {
		m, t, err := setupModel(sp, nproc, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		if mN != nil {
			mN.Close()
		}
		mN, tb = m, t
	}
	defer mN.Close()
	cfg := mN.Config()
	cfg.Workers = 1
	if m1, err = core.NewWithTables(cfg, tb); err != nil {
		return nil, nil, nil, err
	}
	cyc := cycleTicks(cfg)
	for i := 0; i < cyc; i++ {
		mN.Step()
		m1.Step()
	}
	d1, dN := newLayerDriver(m1, ".w1"), newLayerDriver(mN, ".wN")
	var before *core.Checkpoint
	for c := 0; c < cycles; c++ {
		if c == cycles-1 {
			before = dN.aligned()
		}
		first, second := d1, dN
		if c%2 == 1 {
			first, second = dN, d1
		}
		first.cycle(tr, int64(c))
		second.cycle(tr, int64(c))
	}
	ref, err := replay(cfg, tb, before, cyc)
	if err != nil {
		m1.Close()
		return nil, nil, nil, err
	}
	check = sameState("nproc-worker layer drive vs Model.Step replay", ref, dN.aligned())
	if check == nil {
		check = sameState("serial layer drive vs Model.Step replay", ref, d1.aligned())
	}
	return m1, tb, check, nil
}
