package ocean

// Shared-memory parallel stepping: this driver runs the serial driver's
// kernels on a worker pool over the same shared arrays. The decomposition
// rules that make the result bit-identical to the serial driver for any
// worker count:
//
//   - Every kernel invocation becomes a phase whose row ranges partition the
//     domain: each row is written by exactly one worker, with the same
//     per-cell operation order as the serial sweep. pool.Run's barrier
//     separates phases, standing in for the serial driver's sequencing
//     (neighbouring rows are read from the same arrays, so no exchange is
//     needed).
//   - Kernels whose serial form used a shared scratch buffer either get a
//     per-worker buffer (biharmonic lap, tracer tendency, vertical column
//     flux, polar-filter FFT workspace, mixing columns) or write the shared
//     buffer owner-only by row with a barrier before readers (barotropic
//     divergence, smoothing increments).
//   - The horizontal tracer tendency is the one cross-row accumulation: it
//     is split into a flux-tendency phase into per-worker buffers (each
//     worker revisits the faces of its rows in serial order, so every cell's
//     sum has the serial FP order) and an apply phase after the barrier.
//
// Column-local kernels (mixing, convective adjustment, pressure, EOS) are
// trivially order-preserving; they parallelize by rows unchanged.
//
// Every phase body is bound ONCE in bindSharedPhases and reused each step,
// with per-step inputs staged through sharedPhases fields: a closure
// literal at a pool.Run call site is heap-allocated on every call (see
// internal/pool's allocation contract), which would break the
// steady-state zero-allocation guarantee of the coupled step.

// sharedPhases carries the pre-bound phase closures of the shared-memory
// driver and the staged per-phase parameters.
type sharedPhases struct {
	f   *Forcing  // current forcing
	fld []float64 // field being smoothed (barotropic / velocity phases)
	k   int       // level of fld / q
	q   []float64 // tracer level being transported

	vertVelFull   func(w, lo, hi int)
	slowMomBiharm func(w, lo, hi int)
	tracerTend    func(w, lo, hi int)
	tracerApply   func(w, lo, hi int)
	surfForce     func(w, lo, hi int)
	densityFull   func(w, lo, hi int)
	vertMix       func(w, lo, hi int)
	convAdj       func(w, lo, hi int)
	freeze        func(w, lo, hi int)
	vertTracer    func(w, lo, hi int)
	baroPress     func(w, lo, hi int)
	internal      func(w, lo, hi int)
	btDiv         func(w, lo, hi int)
	btMom         func(w, lo, hi int)
	btCont        func(w, lo, hi int)
	btSmoothC     func(w, lo, hi int)
	btSmoothA     func(w, lo, hi int)
	coupleBt      func(w, lo, hi int)
	unsplitFS     func(w, lo, hi int)
	svC           func(w, lo, hi int)
	svA           func(w, lo, hi int)
	polar         func(w, lo, hi int)
	clamp         func(w, lo, hi int)
}

// bindSharedPhases builds the phase closures against this model's
// per-worker scratch. Interior phases receive block ranges over nlat-2 rows
// and shift by one: they write rows [1, nlat-1) while the closed boundary
// rows stay untouched, as in the serial driver. Full phases cover every
// row, matching the serial ghost-extended ranges ge0=0, ge1=nlat.
//
//foam:hotphases
func (m *Model) bindSharedPhases() *sharedPhases {
	ph := &sharedPhases{}
	dt := m.cfg.DtTracer
	dtf := m.cfg.DtInternal
	dtb := m.cfg.DtBaro

	ph.vertVelFull = func(_, j0, j1 int) { m.verticalVelocity(j0, j1) }
	ph.slowMomBiharm = func(w, r0, r1 int) {
		m.slowMomentumCells(ph.f, 1+r0, 1+r1)
		if !m.cfg.NoBiharmonic {
			m.biharmonic(m.wscr[w], 1+r0, 1+r1)
		}
	}
	ph.tracerTend = func(w, r0, r1 int) { m.tracerFluxTend(m.wscr[w], ph.q, ph.k, 1+r0, 1+r1, dt) }
	ph.tracerApply = func(w, r0, r1 int) { m.tracerApply(m.wscr[w], ph.q, ph.k, 1+r0, 1+r1, dt) }
	ph.surfForce = func(_, r0, r1 int) { m.surfaceTracerForcing(ph.f, 1+r0, 1+r1, dt) }
	ph.densityFull = func(_, j0, j1 int) { m.density(j0, j1) }
	ph.vertMix = func(w, r0, r1 int) { m.verticalMixing(m.wmix[w], 1+r0, 1+r1, dt) }
	ph.convAdj = func(_, r0, r1 int) { m.convectiveAdjust(1+r0, 1+r1) }
	ph.freeze = func(_, r0, r1 int) { m.freezeClamp(1+r0, 1+r1, dt) }
	ph.vertTracer = func(w, j0, j1 int) { m.verticalTracerStep(m.wcol[w], j0, j1, dtf) }
	ph.baroPress = func(_, j0, j1 int) { m.baroclinicPressure(j0, j1) }
	ph.internal = func(_, r0, r1 int) { m.internalStep(1+r0, 1+r1, dtf) }
	ph.btDiv = func(_, j0, j1 int) { m.btDivergence(j0, j1) }
	ph.btMom = func(_, r0, r1 int) { m.btMomentum(1+r0, 1+r1, dtb) }
	ph.btCont = func(_, r0, r1 int) { m.btContinuity(1+r0, 1+r1, dtb) }
	ph.btSmoothC = func(_, r0, r1 int) { m.btSmoothCompute(ph.fld, 1+r0, 1+r1) }
	ph.btSmoothA = func(_, r0, r1 int) { m.btSmoothApply(ph.fld, 1+r0, 1+r1) }
	ph.coupleBt = func(_, r0, r1 int) { m.coupleBarotropic(1+r0, 1+r1) }
	ph.unsplitFS = func(_, r0, r1 int) { m.unsplitFreeSurface(ph.f, 1+r0, 1+r1, dtf) }
	ph.svC = func(_, r0, r1 int) { m.svCompute(ph.fld, ph.k, 1+r0, 1+r1) }
	ph.svA = func(_, r0, r1 int) { m.svApply(ph.fld, ph.k, 1+r0, 1+r1) }
	ph.polar = func(w, r0, r1 int) { m.polarFilter(m.wfilt[w], 1+r0, 1+r1) }
	ph.clamp = func(_, r0, r1 int) { m.clampVelocities(1+r0, 1+r1) }
	return ph
}

func (m *Model) stepShared(f *Forcing) {
	nlat := m.cfg.NLat
	p := m.pool
	ph := m.shPh
	ph.f = f

	// 1.-2. Slow tendencies, horizontal transport and column physics at the
	// long tracer step (same sequence as stepRows).
	p.Run(nlat, ph.vertVelFull)
	p.Run(nlat-2, ph.slowMomBiharm)
	m.horizontalTracerShared()
	p.Run(nlat-2, ph.surfForce)
	p.Run(nlat, ph.densityFull)
	p.Run(nlat-2, ph.vertMix)
	p.Run(nlat-2, ph.convAdj)
	p.Run(nlat-2, ph.freeze)

	// 3. Fast subcycles.
	nsub := m.cfg.Subcycles()
	nbaro := m.cfg.BaroSubcycles()
	for n := 0; n < nsub; n++ {
		p.Run(nlat, ph.vertVelFull)
		p.Run(nlat, ph.vertTracer)
		p.Run(nlat, ph.densityFull)
		p.Run(nlat, ph.baroPress)
		p.Run(nlat-2, ph.internal)
		if m.cfg.Split {
			for b := 0; b < nbaro; b++ {
				// Forward-backward barotropic step as barrier-separated
				// sub-phases (divergence -> momentum -> continuity ->
				// per-field smoothing), each reading its predecessor's
				// neighbour rows.
				p.Run(nlat, ph.btDiv)
				p.Run(nlat-2, ph.btMom)
				p.Run(nlat-2, ph.btCont)
				for _, fld := range [3][]float64{m.eta, m.ubt, m.vbt} {
					ph.fld = fld
					p.Run(nlat-2, ph.btSmoothC)
					p.Run(nlat-2, ph.btSmoothA)
				}
			}
			p.Run(nlat-2, ph.coupleBt)
		} else {
			p.Run(nlat-2, ph.unsplitFS)
		}
		// Velocity smoothing reads just-updated neighbour velocities, so
		// each level/component runs as a compute phase into m.scr
		// (owner-only rows) and an apply phase after the barrier.
		for k := 0; k < m.cfg.NLev; k++ {
			ph.k = k
			for _, fld := range [2][]float64{m.u[k], m.v[k]} {
				ph.fld = fld
				p.Run(nlat-2, ph.svC)
				p.Run(nlat-2, ph.svA)
			}
		}
	}

	// 6.-7. Polar filter (row-local, per-worker FFT workspace) and clamp.
	p.Run(nlat-2, ph.polar)
	p.Run(nlat-2, ph.clamp)
	ph.f, ph.fld, ph.q = nil, nil, nil
}

// horizontalTracerShared runs the horizontal tracer transport as a
// flux-tendency phase into per-worker buffers followed by an apply phase,
// per tracer and level. The apply must not overlap the tendency computation
// of any worker because the tendency reads tracer values on neighbour rows.
func (m *Model) horizontalTracerShared() {
	nlat := m.cfg.NLat
	ph := m.shPh
	for _, tr := range [2][][]float64{m.t, m.s} {
		for k := 0; k < m.cfg.NLev; k++ {
			ph.q, ph.k = tr[k], k
			m.pool.Run(nlat-2, ph.tracerTend)
			m.pool.Run(nlat-2, ph.tracerApply)
		}
	}
}
