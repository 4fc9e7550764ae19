package ocean

import "math"

// stepRows advances rows [j0,j1) one tracer interval: the serial driver.
// The shared-memory driver (shared.go) runs the same kernels as pooled
// phases in the same order.
func (m *Model) stepRows(f *Forcing, j0, j1 int) {
	dt := m.cfg.DtTracer

	// Ghost-extended ranges: column-local quantities are also computed on
	// the rows bordering [j0,j1), which the interior kernels read.
	ge0 := max(j0-1, 0)
	ge1 := min(j1+1, m.cfg.NLat)

	// 1. Vertical velocity and the slow momentum tendencies: advection +
	// biharmonic friction + wind stress + bottom drag, evaluated once per
	// tracer step and carried unchanged through the subcycles (the paper's
	// "yet a longer step ... for diffusive and advective processes").
	m.verticalVelocity(ge0, ge1)
	m.slowMomentum(f, j0, j1)

	// 2. Horizontal tracer transport, diffusion and column physics at the
	// long step.
	m.horizontalTracerStep(j0, j1, dt)
	m.surfaceTracerForcing(f, j0, j1, dt)
	// Refresh density before the Richardson mixing so it reflects the
	// just-advected tracers (and so no hidden state survives a restart).
	m.density(ge0, ge1)
	m.verticalMixing(m.mix, j0, j1, dt)
	m.convectiveAdjust(j0, j1)
	m.freezeClamp(j0, j1, dt)

	// 3. Fast subcycles — the "fastest parts of the internal dynamics" of
	// the paper's Section 4.2: the internal gravity-wave loop (velocity <-
	// pressure gradients, buoyancy <- vertical advection of the
	// stratification) plus the split 2-D barotropic system. Density and
	// pressure are refreshed every subcycle so internal waves are
	// integrated at the short step where they are stable.
	nsub := m.cfg.Subcycles()
	nbaro := m.cfg.BaroSubcycles()
	dtf := m.cfg.DtInternal
	dtb := m.cfg.DtBaro
	for n := 0; n < nsub; n++ {
		m.verticalVelocity(ge0, ge1)
		m.verticalTracerStep(m.scr2, ge0, ge1, dtf)
		m.density(ge0, ge1)
		m.baroclinicPressure(ge0, ge1)
		m.internalStep(j0, j1, dtf)
		if m.cfg.Split {
			// The barotropic system runs on the fastest of the three time
			// levels (paper Section 4.2).
			for b := 0; b < nbaro; b++ {
				m.barotropicStep(f, j0, j1, dtb)
			}
			m.coupleBarotropic(j0, j1)
		} else {
			m.unsplitFreeSurface(f, j0, j1, dtf)
		}
		m.smoothVelocities(j0, j1)
	}

	// 6. Polar filter keeps the converging-meridian rows stable.
	m.polarFilter(m.fft, j0, j1)

	// 7. Velocity limiter: a coarse-resolution safety clamp (3 m/s far
	// exceeds any resolved current).
	m.clampVelocities(j0, j1)
}

func (m *Model) clampVelocities(j0, j1 int) {
	const vmax = 3.0
	nlon := m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		uk, vk := m.u[k], m.v[k]
		for j := j0; j < j1; j++ {
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				sp := math.Hypot(uk[c], vk[c])
				if sp > vmax {
					f := vmax / sp
					uk[c] *= f
					vk[c] *= f
				}
			}
		}
	}
}

// density evaluates the (simplified UNESCO-like) equation of state as a
// density anomaly about Rho0.
func (m *Model) density(j0, j1 int) {
	nlon := m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		tk, sk, rk := m.t[k], m.s[k], m.rho[k]
		for j := j0; j < j1; j++ {
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k >= m.kmt[c] {
					rk[c] = 0
					continue
				}
				td := tk[c] - 10
				rk[c] = Rho0 * (EosAlpha*td + EosAlpha2*td*td + EosBeta*(sk[c]-35))
			}
		}
	}
}

// baroclinicPressure integrates the hydrostatic relation downward; pbc is
// pressure anomaly divided by Rho0 (m^2/s^2).
func (m *Model) baroclinicPressure(j0, j1 int) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			p := 0.0
			for k := 0; k < m.cfg.NLev; k++ {
				if k >= m.kmt[c] {
					m.pbc[k][c] = p
					continue
				}
				p += GravOc * m.rho[k][c] / Rho0 * m.dz[k] * 0.5
				m.pbc[k][c] = p
				p += GravOc * m.rho[k][c] / Rho0 * m.dz[k] * 0.5
			}
		}
	}
}

// gradX/gradY compute masked centered differences at cell c (row j). Where a
// neighbour is land the difference becomes one-sided; where both are land it
// vanishes.
func (m *Model) gradX(field []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	c := j*nlon + i
	ie := j*nlon + (i+1)%nlon
	iw := j*nlon + (i-1+nlon)%nlon
	we, ww := 1.0, 1.0
	if k >= m.kmt[ie] {
		we = 0
	}
	if k >= m.kmt[iw] {
		ww = 0
	}
	switch {
	case we > 0.5 && ww > 0.5:
		return (field[ie] - field[iw]) / (2 * m.dx[j])
	case we > 0.5:
		return (field[ie] - field[c]) / m.dx[j]
	case ww > 0.5:
		return (field[c] - field[iw]) / m.dx[j]
	default:
		return 0
	}
}

func (m *Model) gradY(field []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	c := j*nlon + i
	jn := (j+1)*nlon + i
	js := (j-1)*nlon + i
	wn, ws := 1.0, 1.0
	if j+1 >= m.cfg.NLat || k >= m.kmt[jn] {
		wn = 0
	}
	if j-1 < 0 || k >= m.kmt[js] {
		ws = 0
	}
	switch {
	case wn > 0.5 && ws > 0.5:
		return (field[jn] - field[js]) / (m.dy[j] * 2)
	case wn > 0.5:
		return (field[jn] - field[c]) / m.dy[j]
	case ws > 0.5:
		return (field[c] - field[js]) / m.dy[j]
	default:
		return 0
	}
}

// gradXP/gradYP are the pressure-gradient variants: centered difference
// only where both neighbours are wet at level k, zero otherwise. One-sided
// differences of pressure at coasts and topography steps exert
// non-reciprocal forces that drive spurious along-slope jets; zeroing the
// blocked direction is the standard A-grid remedy (consistent with
// no-normal-flow).
func (m *Model) gradXP(field []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	ie := j*nlon + (i+1)%nlon
	iw := j*nlon + (i-1+nlon)%nlon
	if k >= m.kmt[ie] || k >= m.kmt[iw] {
		return 0
	}
	return (field[ie] - field[iw]) / (2 * m.dx[j])
}

func (m *Model) gradYP(field []float64, j, i, k int) float64 {
	if j+1 >= m.cfg.NLat || j-1 < 0 {
		return 0
	}
	nlon := m.cfg.NLon
	jn := (j+1)*nlon + i
	js := (j-1)*nlon + i
	if k >= m.kmt[jn] || k >= m.kmt[js] {
		return 0
	}
	return (field[jn] - field[js]) / (2 * m.dy[j])
}

// faceU and faceV are the advective face velocities: the average of the two
// adjacent cell velocities, zero when either side is land (no flow through
// coasts). faceU is the east face of (j,i); faceV the north face.
func (m *Model) faceU(uk []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	c := j*nlon + i
	ie := j*nlon + (i+1)%nlon
	if k >= m.kmt[c] || k >= m.kmt[ie] {
		return 0
	}
	u := 0.5 * (uk[c] + uk[ie])
	lim := 0.45 * m.dx[j] / m.cfg.DtTracer
	if u > lim {
		return lim
	}
	if u < -lim {
		return -lim
	}
	return u
}

func (m *Model) faceV(vk []float64, j, i, k int) float64 {
	if j+1 >= m.cfg.NLat {
		return 0
	}
	nlon := m.cfg.NLon
	c := j*nlon + i
	jn := (j+1)*nlon + i
	if k >= m.kmt[c] || k >= m.kmt[jn] {
		return 0
	}
	v := 0.5 * (vk[c] + vk[jn])
	lim := 0.45 * math.Min(m.dy[j], m.dy[j+1]) / m.cfg.DtTracer
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// faceDivergence is the horizontal divergence built from the face
// velocities — the same discrete operator the tracer fluxes use, so the
// diagnosed w closes the 3-D divergence cell by cell (a uniform tracer is
// then preserved exactly under advection).
func (m *Model) faceDivergence(uk, vk []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	uE := m.faceU(uk, j, i, k)
	uW := m.faceU(uk, j, (i-1+nlon)%nlon, k)
	div := (uE - uW) / m.dx[j]
	var vN, vS float64
	var cN, cS float64
	if j+1 < m.cfg.NLat {
		vN = m.faceV(vk, j, i, k)
		cN = 0.5 * (m.cosLat[j] + m.cosLat[j+1])
	}
	if j-1 >= 0 {
		vS = m.faceV(vk, j-1, i, k)
		cS = 0.5 * (m.cosLat[j-1] + m.cosLat[j])
	}
	div += (vN*cN - vS*cS) / (m.dy[j] * m.cosLat[j])
	return div
}

// verticalVelocity integrates continuity upward from the bottom using the
// face-consistent divergence. w[0] (the surface face) carries the
// free-surface volume flux.
func (m *Model) verticalVelocity(j0, j1 int) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			kb := m.kmt[c]
			for k := m.cfg.NLev; k > kb; k-- {
				m.wVel[k][c] = 0
			}
			if kb == 0 {
				m.wVel[0][c] = 0
				continue
			}
			m.wVel[kb][c] = 0
			// Layer volume balance (w positive upward, z increasing
			// downward): horizontal convergence leaves through the top:
			// w_top = w_bottom - div*dz.
			for k := kb - 1; k >= 0; k-- {
				m.wVel[k][c] = m.wVel[k+1][c] - m.faceDivergence(m.u[k], m.v[k], j, i, k)*m.dz[k]
			}
		}
	}
}

// slowMomentum assembles the advective, frictional and surface-stress
// tendencies evaluated once per tracer step.
func (m *Model) slowMomentum(f *Forcing, j0, j1 int) {
	m.slowMomentumCells(f, j0, j1)
	// Biharmonic friction as two Laplacian passes; the intermediate
	// Laplacian is computed one row beyond the block.
	if !m.cfg.NoBiharmonic {
		m.biharmonic(m.scr, j0, j1)
	}
}

// slowMomentumCells is the per-cell part of slowMomentum (everything except
// the biharmonic pass, which needs a scratch buffer).
func (m *Model) slowMomentumCells(f *Forcing, j0, j1 int) {
	nlon := m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		uk, vk := m.u[k], m.v[k]
		su, sv := m.slowU[k], m.slowV[k]
		for j := j0; j < j1; j++ {
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k >= m.kmt[c] {
					su[c], sv[c] = 0, 0
					continue
				}
				// Upstream advection of momentum.
				if !m.cfg.NoMomentumAdvection {
					su[c] = -m.upstream(uk, uk, vk, j, i, k) - m.vadvMom(m.u, k, j, i, c)
					sv[c] = -m.upstream(vk, uk, vk, j, i, k) - m.vadvMom(m.v, k, j, i, c)
				} else {
					su[c], sv[c] = 0, 0
				}
				// Laplacian viscosity, capped by the explicit stability
				// bound on converging rows.
				am := m.cfg.AM
				if am > 0 {
					lim := 0.2 / (m.cfg.DtTracer * (1/(m.dx[j]*m.dx[j]) + 1/(m.dy[j]*m.dy[j])))
					if am > lim {
						am = lim
					}
					scale := am / (m.dx[j] * m.dy[j])
					su[c] += scale * m.gridLaplacian(uk, j, i, k)
					sv[c] += scale * m.gridLaplacian(vk, j, i, k)
				}
				// Wind stress into the top layer; quadratic bottom drag.
				if k == 0 && f != nil {
					su[c] += f.TauX[c] / (Rho0 * m.dz[0])
					sv[c] += f.TauY[c] / (Rho0 * m.dz[0])
				}
				if k == m.kmt[c]-1 {
					// Quadratic bottom drag. The coefficient is larger than
					// the canonical 1e-3: it also stands in for the
					// topographic form stress that balances zonally
					// unbounded (ACC-like) channel flows, which a coarse
					// A-grid model cannot represent explicitly.
					sp := math.Hypot(uk[c], vk[c])
					cdz := 2.5e-3 * sp / m.dz[k]
					su[c] -= cdz * uk[c]
					sv[c] -= cdz * vk[c]
				}
			}
		}
	}
}

// upstream is the donor-cell advection of field q by (uk, vk) at one point.
func (m *Model) upstream(q, uk, vk []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	c := j*nlon + i
	var adv float64
	// CFL-limit the advecting velocities against the tracer step.
	uMax := 0.45 * m.dx[j] / m.cfg.DtTracer
	vMax := 0.45 * m.dy[j] / m.cfg.DtTracer
	u := math.Max(-uMax, math.Min(uMax, uk[c]))
	vlim := math.Max(-vMax, math.Min(vMax, vk[c]))
	if u > 0 {
		iw := j*nlon + (i-1+nlon)%nlon
		if k < m.kmt[iw] {
			adv += u * (q[c] - q[iw]) / m.dx[j]
		}
	} else {
		ie := j*nlon + (i+1)%nlon
		if k < m.kmt[ie] {
			adv += u * (q[ie] - q[c]) / m.dx[j]
		}
	}
	if vlim > 0 {
		if j-1 >= 0 {
			js := (j-1)*nlon + i
			if k < m.kmt[js] {
				adv += vlim * (q[c] - q[js]) / m.dy[j]
			}
		}
	} else if j+1 < m.cfg.NLat {
		jn := (j+1)*nlon + i
		if k < m.kmt[jn] {
			adv += vlim * (q[jn] - q[c]) / m.dy[j]
		}
	}
	return adv
}

// vadvMom is donor-cell vertical advection for a momentum component, with
// the advecting velocity CFL-limited against the long tracer step (the slow
// tendencies are held fixed through the subcycles, so they must satisfy the
// tracer-step stability bound).
func (m *Model) vadvMom(x [][]float64, k, j, i, c int) float64 {
	kb := m.kmt[c]
	dt := m.cfg.DtTracer
	var adv float64
	if k > 0 {
		wTop := m.wVel[k][c]
		wMax := 0.45 * math.Min(m.dz[k-1], m.dz[k]) / dt
		if wTop < -wMax {
			wTop = -wMax
		}
		if wTop < 0 { // downward through the top face brings upper water
			adv += -wTop * (x[k-1][c] - x[k][c]) / (0.5 * (m.dz[k-1] + m.dz[k]))
		}
	}
	if k+1 < kb {
		wBot := m.wVel[k+1][c]
		wMax := 0.45 * math.Min(m.dz[k], m.dz[k+1]) / dt
		if wBot > wMax {
			wBot = wMax
		}
		if wBot > 0 { // upward through the bottom face brings lower water
			adv += -wBot * (x[k][c] - x[k+1][c]) / (0.5 * (m.dz[k] + m.dz[k+1]))
		}
	}
	return adv
}

// biharmonic adds scale-selective del^4 momentum damping, row-scaled so the
// damping of the two-grid-interval mode per tracer step is BiharmCoef. lap
// is caller-supplied scratch (the shared-memory driver passes a per-worker
// buffer so concurrent blocks do not collide).
func (m *Model) biharmonic(lap []float64, j0, j1 int) {
	nlon := m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		for _, pair := range [2]struct {
			fld  []float64
			tend []float64
		}{{m.u[k], m.slowU[k]}, {m.v[k], m.slowV[k]}} {
			// First Laplacian (grid units: dimensionless with local dx).
			// Computed one row beyond the block, which the second pass
			// reads.
			for j := max(j0-1, 1); j < min(j1+1, m.cfg.NLat-1); j++ {
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					if k >= m.kmt[c] {
						lap[c] = 0
						continue
					}
					lap[c] = m.gridLaplacian(pair.fld, j, i, k)
				}
			}
			coef := m.cfg.BiharmCoef / (16 * m.cfg.DtTracer)
			for j := j0; j < j1; j++ {
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					if k >= m.kmt[c] {
						continue
					}
					pair.tend[c] -= coef * m.gridLaplacian(lap, j, i, k)
				}
			}
		}
	}
}

// gridLaplacian is the dimensionless five-point Laplacian (grid units), so
// the biharmonic damping rate is resolution-independent.
func (m *Model) gridLaplacian(fld []float64, j, i, k int) float64 {
	nlon := m.cfg.NLon
	c := j*nlon + i
	ctr := fld[c]
	sum, cnt := 0.0, 0.0
	add := func(cc int, ok bool) {
		if ok {
			sum += fld[cc]
			cnt++
		}
	}
	ie := j*nlon + (i+1)%nlon
	iw := j*nlon + (i-1+nlon)%nlon
	add(ie, k < m.kmt[ie])
	add(iw, k < m.kmt[iw])
	if j+1 < m.cfg.NLat {
		jn := (j+1)*nlon + i
		add(jn, k < m.kmt[jn])
	}
	if j-1 >= 0 {
		js := (j-1)*nlon + i
		add(js, k < m.kmt[js])
	}
	return sum - cnt*ctr
}

// horizontalTracerStep updates T and S with horizontal donor-cell face
// fluxes plus down-gradient diffusion, in flux form with an advective-form
// compensation (q times the discrete horizontal divergence) so that a
// uniform tracer is preserved exactly even though the vertical transport is
// handled separately in the subcycles. Interior face fluxes cancel
// pairwise, so conservation is exact up to the (small) compensation term.
func (m *Model) horizontalTracerStep(j0, j1 int, dt float64) {
	for _, tr := range [2][][]float64{m.t, m.s} {
		for k := 0; k < m.cfg.NLev; k++ {
			m.tracerFluxTend(m.scr, tr[k], k, j0, j1, dt)
			m.tracerApply(m.scr, tr[k], k, j0, j1, dt)
		}
	}
}

// tracerFluxTend accumulates the horizontal flux-form tendency for rows
// [j0,j1) of one tracer level into tend. Faces are visited in the serial
// order (east faces of each owned row, then north faces from row j0-1 up),
// so a cell's tendency is summed in exactly the serial FP order regardless
// of how the rows are blocked — the basis of the shared-memory driver's
// bit-identity guarantee. tend is caller scratch; rows [j0-1, j1] are
// zeroed and written, nothing else is touched.
func (m *Model) tracerFluxTend(tend, q []float64, k, j0, j1 int, dt float64) {
	nlon, nlat := m.cfg.NLon, m.cfg.NLat
	uk, vk := m.u[k], m.v[k]
	for j := max(j0-1, 0); j < min(j1+1, nlat); j++ {
		for i := 0; i < nlon; i++ {
			tend[j*nlon+i] = 0
		}
	}
	// East faces: flux from cell (j,i) into (j,i+1).
	for j := j0; j < j1; j++ {
		invV := 1 / m.dx[j]
		ufMax := 0.45 * m.dx[j] / dt
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			ie := j*nlon + (i+1)%nlon
			if k >= m.kmt[c] || k >= m.kmt[ie] {
				continue
			}
			uf := 0.5 * (uk[c] + uk[ie])
			// Donor-cell stability bound at the long tracer step.
			if uf > ufMax {
				uf = ufMax
			} else if uf < -ufMax {
				uf = -ufMax
			}
			var flux float64
			if uf > 0 {
				flux = uf * q[c]
			} else {
				flux = uf * q[ie]
			}
			flux -= m.cfg.AH * (q[ie] - q[c]) / m.dx[j]
			tend[c] -= flux * invV
			tend[ie] += flux * invV
		}
	}
	// North faces with the metric convergence factor.
	for j := max(j0-1, 0); j < min(j1, nlat-1); j++ {
		cosF := 0.5 * (m.cosLat[j] + m.cosLat[j+1])
		dyF := 0.5 * (m.dy[j] + m.dy[j+1])
		vfMax := 0.45 * math.Min(m.dy[j], m.dy[j+1]) / dt
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			jn := (j+1)*nlon + i
			if k >= m.kmt[c] || k >= m.kmt[jn] {
				continue
			}
			vf := 0.5 * (vk[c] + vk[jn])
			if vf > vfMax {
				vf = vfMax
			} else if vf < -vfMax {
				vf = -vfMax
			}
			var flux float64
			if vf > 0 {
				flux = vf * q[c]
			} else {
				flux = vf * q[jn]
			}
			flux -= m.cfg.AH * (q[jn] - q[c]) / dyF
			flux *= cosF
			tend[c] -= flux / (m.dy[j] * m.cosLat[j])
			tend[jn] += flux / (m.dy[j+1] * m.cosLat[j+1])
		}
	}
}

// tracerApply applies the accumulated tendency with the advective-form
// compensation + q*divH on rows [j0,j1).
func (m *Model) tracerApply(tend, q []float64, k, j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	uk, vk := m.u[k], m.v[k]
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if k < m.kmt[c] {
				divH := m.faceDivergence(uk, vk, j, i, k)
				q[c] += dt * (tend[c] + q[c]*divH)
			}
		}
	}
}

// verticalTracerStep transports T and S vertically by the current w with
// donor-cell face fluxes and the advective-form compensation. It runs at
// the short internal step inside the subcycles, because w*(dT/dz) against
// the stratification is the restoring force of internal gravity waves (the
// "fastest parts of the internal dynamics" in the paper's description).
// flux is caller scratch for the per-column face fluxes (at least NLev
// entries); the shared-memory driver passes a per-worker buffer.
func (m *Model) verticalTracerStep(flux []float64, j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	for _, tr := range [2][][]float64{m.t, m.s} {
		for j := j0; j < j1; j++ {
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				kb := m.kmt[c]
				if kb < 1 {
					continue
				}
				// Face fluxes at half levels 0..kb-1 (0 is the surface
				// face carrying the free-surface volume flux), CFL-limited.
				for k := 0; k < kb; k++ {
					w := m.wVel[k][c]
					var dzMin float64
					if k > 0 {
						dzMin = math.Min(m.dz[k-1], m.dz[k])
					} else {
						dzMin = m.dz[0]
					}
					wMax := 0.45 * dzMin / dt
					if w > wMax {
						w = wMax
					} else if w < -wMax {
						w = -wMax
					}
					var fl float64
					if k == 0 {
						fl = w * tr[0][c]
					} else if w > 0 {
						fl = w * tr[k][c]
					} else {
						fl = w * tr[k-1][c]
					}
					flux[k] = fl
				}
				for k := 0; k < kb; k++ {
					fTop := flux[k]
					var fBot, wTop, wBot float64
					wTop = m.wVel[k][c]
					if k+1 < kb {
						fBot = flux[k+1]
						wBot = m.wVel[k+1][c]
					}
					// Flux divergence plus advective-form compensation so a
					// uniform tracer stays exactly uniform.
					tr[k][c] += dt * ((fBot-fTop)/m.dz[k] + tr[k][c]*(wTop-wBot)/m.dz[k])
				}
			}
		}
	}
}

// surfaceTracerForcing applies heat and freshwater forcing to the top layer.
func (m *Model) surfaceTracerForcing(f *Forcing, j0, j1 int, dt float64) {
	if f == nil {
		return
	}
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if m.kmt[c] == 0 {
				continue
			}
			m.t[0][c] += f.Heat[c] * dt / (Rho0 * CpOcean * m.dz[0])
			// Virtual salt flux plus a volume source on the free surface
			// (eta carries the s^2-amplified scaling of the slowed
			// barotropic formulation).
			fwMS := f.FreshWater[c] / 1000.0 // m/s of fresh water
			m.s[0][c] -= m.s[0][c] * fwMS * dt / m.dz[0]
			m.eta[c] += fwMS * dt * m.cfg.Slowdown * m.cfg.Slowdown
		}
	}
}

// freezeClamp enforces the -1.92 C clamp of the paper and diagnoses the
// water-equivalent freezing flux handed to the coupler's sea ice.
func (m *Model) freezeClamp(j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	const lFusion = 3.34e5
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			m.iceFlux[c] = 0
			if m.kmt[c] == 0 {
				continue
			}
			if m.t[0][c] < TFreeze {
				deficit := (TFreeze - m.t[0][c]) * Rho0 * CpOcean * m.dz[0] // J/m^2
				m.t[0][c] = TFreeze
				m.iceFlux[c] = deficit / lFusion / dt
				// Brine rejection: freezing removes fresh water.
				m.s[0][c] += m.s[0][c] * (m.iceFlux[c] / 1000.0) * dt / m.dz[0]
			}
			for k := 1; k < m.kmt[c]; k++ {
				if m.t[k][c] < TFreeze {
					m.t[k][c] = TFreeze
				}
			}
		}
	}
}

// internalStep advances the 3-D velocities with the fast internal terms:
// exact Coriolis rotation, baroclinic pressure gradients, and the stored
// slow tendencies.
func (m *Model) internalStep(j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	for k := 0; k < m.cfg.NLev; k++ {
		uk, vk := m.u[k], m.v[k]
		for j := j0; j < j1; j++ {
			// Trapezoidal (Crank-Nicolson) Coriolis: neutral for inertial
			// oscillations and stable in combination with forward-backward
			// gravity (rotating the already-incremented velocity is weakly
			// unstable — see the stability note in DESIGN.md).
			al := 0.5 * m.fcor[j] * dt
			den := 1 / (1 + al*al)
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k >= m.kmt[c] {
					continue
				}
				du := -m.gradXP(m.pbc[k], j, i, k) + m.slowU[k][c]
				dv := -m.gradYP(m.pbc[k], j, i, k) + m.slowV[k][c]
				if !m.cfg.Split {
					geff := GravOc / (m.cfg.Slowdown * m.cfg.Slowdown)
					du -= geff * m.gradX(m.eta, j, i, 0)
					dv -= geff * m.gradY(m.eta, j, i, 0)
				}
				ru := uk[c] + al*vk[c] + du*dt
				rv := vk[c] - al*uk[c] + dv*dt
				uk[c] = (ru + al*rv) * den
				vk[c] = (rv - al*ru) * den
			}
		}
	}
}

// smoothVelocities applies grid-scale smoothing to the 3-D velocity. The
// unstaggered grid's two-grid-interval velocity mode lies in the null space
// of both the centered pressure gradient and the face divergence, so no
// physical term restrains it; without this (or an equivalently strong
// del^4) the nonlinear terms pump it at density fronts. The damping is
// strongly scale-selective: ~0.3/step at 2*dx, O(k^2 dx^2) elsewhere.
// Runs as its own pool phase because it reads just-updated neighbour
// velocities.
func (m *Model) smoothVelocities(j0, j1 int) {
	for k := 0; k < m.cfg.NLev; k++ {
		for _, fld := range [2][]float64{m.u[k], m.v[k]} {
			m.svCompute(fld, k, j0, j1)
			m.svApply(fld, k, j0, j1)
		}
	}
}

// svCompute stores the velocity-smoothing increment for rows [j0,j1) of one
// level/component in m.scr. Writes are owner-only per row, so the shared
// buffer is safe across a row-partitioned phase; the shared-memory driver
// barriers between svCompute and svApply because the increment reads
// neighbour rows the apply pass overwrites.
func (m *Model) svCompute(fld []float64, k, j0, j1 int) {
	nlon := m.cfg.NLon
	const smooth3d = 0.04
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if k >= m.kmt[c] {
				m.scr[c] = 0
				continue
			}
			m.scr[c] = smooth3d * m.gridLaplacian(fld, j, i, k)
		}
	}
}

// svApply adds the stored smoothing increment on rows [j0,j1).
func (m *Model) svApply(fld []float64, k, j0, j1 int) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if k < m.kmt[c] {
				fld[c] += m.scr[c]
			}
		}
	}
}

// barotropicStep advances the split 2-D system (eta, ubt, vbt). The
// slowdown follows Tobis's slowed barotropic dynamics: gravity is reduced
// by s^2 in the barotropic momentum equation, so the external wave travels
// s times slower while the continuity equation stays physical. The steady
// momentum balance is unchanged — eta simply carries an s^2-amplified
// amplitude (g_eff*eta is the physical surface pressure), and because
// continuity is untouched that amplified eta builds at the full physical
// rate: coastal blocking and geostrophic setup happen on the fast
// timescale, which is why the paper can claim the slowing "make[s] little
// difference to the internal motions". Diagnostics report eta/s^2, the
// physically scaled surface height.
func (m *Model) barotropicStep(f *Forcing, j0, j1 int, dt float64) {
	// Momentum first (forward), then continuity with the new velocities
	// (backward) — the standard forward-backward scheme.
	m.btDivergence(max(j0-1, 0), min(j1+1, m.cfg.NLat))
	m.btMomentum(j0, j1, dt)
	m.btContinuity(j0, j1, dt)
	// The unstaggered grid supports a two-grid-interval null mode in the
	// (eta, ubt, vbt) system that the centered gradients cannot feel; a
	// light grid-Laplacian smoothing removes it (the role the paper gives
	// its del^4 dissipation).
	for _, fld := range [3][]float64{m.eta, m.ubt, m.vbt} {
		m.btSmoothCompute(fld, j0, j1)
		m.btSmoothApply(fld, j0, j1)
	}
}

// btDivergence stores the barotropic velocity divergence for rows [j0,j1)
// in m.scr2 (owner-only row writes, so the shared buffer is phase-safe).
// Divergence damping: transient gravity waves in the slowed system carry
// s-times amplified divergent velocities for a given eta; a diffusion
// acting on the velocity divergence removes them while leaving the
// geostrophic (non-divergent) circulation untouched.
func (m *Model) btDivergence(j0, j1 int) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if m.kmt[c] == 0 {
				m.scr2[c] = 0
				continue
			}
			m.scr2[c] = m.faceDivergence(m.ubt, m.vbt, j, i, 0)
		}
	}
}

// btMomentum advances (ubt, vbt) on rows [j0,j1) with the forward part of
// the forward-backward scheme; it reads the divergence stored by
// btDivergence.
func (m *Model) btMomentum(j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	geff := GravOc / (m.cfg.Slowdown * m.cfg.Slowdown)
	for j := j0; j < j1; j++ {
		al := 0.5 * m.fcor[j] * dt
		den := 1 / (1 + al*al)
		nuDiv := 0.15 / (dt * (1/(m.dx[j]*m.dx[j]) + 1/(m.dy[j]*m.dy[j])))
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if m.kmt[c] == 0 {
				m.ubt[c], m.vbt[c] = 0, 0
				continue
			}
			h := m.zh[m.kmt[c]]
			// One-sided eta gradients at coasts are essential: the sea
			// surface piles up against a wall and the resulting pressure
			// force is what blocks further inflow on an A-grid.
			du := -geff * m.gradX(m.eta, j, i, 0)
			dv := -geff * m.gradY(m.eta, j, i, 0)
			du += nuDiv * m.gradX(m.scr2, j, i, 0)
			dv += nuDiv * m.gradY(m.scr2, j, i, 0)
			// Depth-mean baroclinic pressure gradient and slow tendencies
			// (the wind stress reaches the mean through slowU's top layer).
			var pgx, pgy, sux, svy float64
			for k := 0; k < m.kmt[c]; k++ {
				w := m.dz[k] / h
				pgx += m.gradXP(m.pbc[k], j, i, k) * w
				pgy += m.gradYP(m.pbc[k], j, i, k) * w
				sux += m.slowU[k][c] * w
				svy += m.slowV[k][c] * w
			}
			du += -pgx + sux
			dv += -pgy + svy
			// Trapezoidal Coriolis with a weak Rayleigh damping standing
			// in for unresolved shelf drag.
			ru := m.ubt[c] + al*m.vbt[c] + du*dt
			rv := m.vbt[c] - al*m.ubt[c] + dv*dt
			damp := 1 - dt*3e-7
			m.ubt[c] = (ru + al*rv) * den * damp
			m.vbt[c] = (rv - al*ru) * den * damp
		}
	}
}

// btContinuity applies the backward continuity step d(eta)/dt = -div(H u_bt)
// on rows [j0,j1).
func (m *Model) btContinuity(j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if m.kmt[c] == 0 {
				continue
			}
			m.eta[c] -= dt * m.transportDiv(j, i)
		}
	}
}

// btSmoothCompute stores the null-mode smoothing increment for one 2-D
// field on rows [j0,j1) in m.scr (owner-only row writes).
func (m *Model) btSmoothCompute(fld []float64, j0, j1 int) {
	nlon := m.cfg.NLon
	const smooth = 0.02
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if m.kmt[c] == 0 {
				continue
			}
			m.scr[c] = smooth * m.gridLaplacian(fld, j, i, 0)
		}
	}
}

// btSmoothApply adds the stored increment on rows [j0,j1).
func (m *Model) btSmoothApply(fld []float64, j0, j1 int) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			if m.kmt[c] > 0 {
				fld[c] += m.scr[c]
			}
		}
	}
}

// transportDiv computes div(H u_bt) at a cell from face transports (no
// flow through coasts), matching the face discretization used everywhere
// else.
func (m *Model) transportDiv(j, i int) float64 {
	nlon := m.cfg.NLon
	hOf := func(c int) float64 {
		if m.kmt[c] == 0 {
			return 0
		}
		return m.zh[m.kmt[c]]
	}
	c := j*nlon + i
	faceHU := func(c1, c2 int) float64 {
		if m.kmt[c1] == 0 || m.kmt[c2] == 0 {
			return 0
		}
		return 0.5 * (hOf(c1)*m.ubt[c1] + hOf(c2)*m.ubt[c2])
	}
	faceHV := func(c1, c2 int) float64 {
		if m.kmt[c1] == 0 || m.kmt[c2] == 0 {
			return 0
		}
		return 0.5 * (hOf(c1)*m.vbt[c1] + hOf(c2)*m.vbt[c2])
	}
	ie := j*nlon + (i+1)%nlon
	iw := j*nlon + (i-1+nlon)%nlon
	div := (faceHU(c, ie) - faceHU(iw, c)) / m.dx[j]
	var vn, vs float64
	if j+1 < m.cfg.NLat {
		vn = faceHV(c, (j+1)*nlon+i) * 0.5 * (m.cosLat[j] + m.cosLat[j+1])
	}
	if j-1 >= 0 {
		vs = faceHV((j-1)*nlon+i, c) * 0.5 * (m.cosLat[j-1] + m.cosLat[j])
	}
	div += (vn - vs) / (m.dy[j] * m.cosLat[j])
	return div
}

// coupleBarotropic replaces the depth mean of the 3-D velocity with the
// barotropic solution, the split-coupling of Killworth et al. that the
// paper cites.
func (m *Model) coupleBarotropic(j0, j1 int) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			kb := m.kmt[c]
			if kb == 0 {
				continue
			}
			h := m.zh[kb]
			var mu, mv float64
			for k := 0; k < kb; k++ {
				mu += m.u[k][c] * m.dz[k]
				mv += m.v[k][c] * m.dz[k]
			}
			mu /= h
			mv /= h
			du := m.ubt[c] - mu
			dv := m.vbt[c] - mv
			for k := 0; k < kb; k++ {
				m.u[k][c] += du
				m.v[k][c] += dv
			}
		}
	}
}

// unsplitFreeSurface is the baseline path: the free surface evolves from
// the full 3-D transport divergence and the velocities already felt the
// (unslowed) surface gradient in internalStep.
func (m *Model) unsplitFreeSurface(f *Forcing, j0, j1 int, dt float64) {
	nlon := m.cfg.NLon
	for j := j0; j < j1; j++ {
		for i := 0; i < nlon; i++ {
			c := j*nlon + i
			kb := m.kmt[c]
			if kb == 0 {
				continue
			}
			div := 0.0
			for k := 0; k < kb; k++ {
				div += m.faceDivergence(m.u[k], m.v[k], j, i, k) * m.dz[k]
			}
			m.eta[c] -= dt * div
		}
	}
}
