package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"foam/internal/sphere"
)

func TestLegendreOrthonormal(t *testing.T) {
	// With 40 Gaussian nodes, quadrature is exact through degree 79, so the
	// inner products of P̄ up to n=31 are exact.
	nlat := 40
	nodes, w := sphere.GaussLegendre(nlat)
	l := NewLegendre(10, 31)
	tabs := make([][]float64, nlat)
	for j := range tabs {
		tabs[j] = l.Eval(nil, nodes[j])
	}
	for m := 0; m <= 10; m++ {
		for n1 := m; n1 <= 20; n1++ {
			for n2 := n1; n2 <= 20; n2++ {
				s := 0.0
				for j := 0; j < nlat; j++ {
					s += w[j] * l.At(tabs[j], m, n1) * l.At(tabs[j], m, n2)
				}
				want := 0.0
				if n1 == n2 {
					want = 1
				}
				if math.Abs(s-want) > 1e-11 {
					t.Fatalf("<P(%d,%d),P(%d,%d)> = %v want %v", m, n1, m, n2, s, want)
				}
			}
		}
	}
}

func TestLegendreKnownValues(t *testing.T) {
	l := NewLegendre(2, 4)
	mu := 0.37
	tab := l.Eval(nil, mu)
	// P̄_0^0 = 1/sqrt(2); P̄_1^0 = sqrt(3/2) mu; P̄_2^0 = sqrt(5/8)(3mu^2-1).
	if got := l.At(tab, 0, 0); math.Abs(got-1/math.Sqrt2) > 1e-14 {
		t.Fatalf("P00 = %v", got)
	}
	if got := l.At(tab, 0, 1); math.Abs(got-math.Sqrt(1.5)*mu) > 1e-14 {
		t.Fatalf("P01 = %v", got)
	}
	want20 := math.Sqrt(5.0/8.0) * (3*mu*mu - 1)
	if got := l.At(tab, 0, 2); math.Abs(got-want20) > 1e-14 {
		t.Fatalf("P02 = %v want %v", got, want20)
	}
	// P̄_1^1 = sqrt(3)/sqrt(2)*... seed: P̄_1^1 = sqrt(3/2)*c/sqrt(2)? Check
	// against the normalized formula P̄_1^1 = sqrt(3)/2 * sqrt(2) * c / ...
	// Simplest check: orthonormality of the m=1 column was verified above;
	// here just confirm the sign convention (positive at mu=0.37).
	if got := l.At(tab, 1, 1); got <= 0 {
		t.Fatalf("P11 sign = %v", got)
	}
}

func TestEvalDerivMatchesFiniteDifference(t *testing.T) {
	mmax, nmax := 6, 12
	pl := NewLegendre(mmax, nmax+1)
	hl := NewLegendre(mmax, nmax)
	mu := 0.43
	dmu := 1e-6
	tabC := pl.Eval(nil, mu)
	tabP := pl.Eval(nil, mu+dmu)
	tabM := pl.Eval(nil, mu-dmu)
	h := EvalDeriv(nil, tabC, pl, mmax, nmax)
	for m := 0; m <= mmax; m++ {
		for n := m; n <= nmax; n++ {
			fd := (pl.At(tabP, m, n) - pl.At(tabM, m, n)) / (2 * dmu)
			want := (1 - mu*mu) * fd
			got := h[hl.Offset(m)+(n-m)]
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("H(%d,%d) = %v, finite difference %v", m, n, got, want)
			}
		}
	}
}

func TestTruncationIndexing(t *testing.T) {
	tr := Rhomboidal(15)
	if tr.Count() != 256 {
		t.Fatalf("R15 count %d", tr.Count())
	}
	if tr.NMax() != 30 {
		t.Fatalf("R15 nmax %d", tr.NMax())
	}
	seen := make(map[int]bool)
	for m := 0; m <= tr.M; m++ {
		for n := m; n <= m+tr.K; n++ {
			idx := tr.Index(m, n)
			if idx < 0 || idx >= tr.Count() || seen[idx] {
				t.Fatalf("bad index for (%d,%d): %d", m, n, idx)
			}
			seen[idx] = true
			if !tr.Contains(m, n) {
				t.Fatalf("Contains(%d,%d) false", m, n)
			}
		}
	}
	if tr.Contains(16, 16) || tr.Contains(0, 16) || tr.Contains(-1, 0) {
		t.Fatal("Contains accepts out-of-truncation indices")
	}
}

func TestGridForR15(t *testing.T) {
	nlat, nlon := R15.GridFor()
	if nlon != 48 || nlat != 40 {
		t.Fatalf("R15 grid %dx%d, want 40x48", nlat, nlon)
	}
}

func TestTransformRoundTripBandLimited(t *testing.T) {
	tr := NewTransform(Rhomboidal(10), 32, 36)
	rng := rand.New(rand.NewSource(5))
	spec := make([]complex128, tr.Trunc.Count())
	for m := 0; m <= tr.Trunc.M; m++ {
		for n := m; n <= m+tr.Trunc.K; n++ {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			if m == 0 {
				im = 0 // zonal coefficients of a real field are real
			}
			spec[tr.Trunc.Index(m, n)] = complex(re, im)
		}
	}
	grid := tr.Synthesize(spec)
	back := tr.Analyze(grid)
	for i := range spec {
		if cmplx.Abs(back[i]-spec[i]) > 1e-9 {
			t.Fatalf("round trip coefficient %d: %v vs %v", i, back[i], spec[i])
		}
	}
}

func TestAnalyzeConstantField(t *testing.T) {
	tr := NewTransform(Rhomboidal(5), 16, 18)
	grid := make([]float64, 16*18)
	for i := range grid {
		grid[i] = 4.2
	}
	spec := tr.Analyze(grid)
	// Constant c has only the (0,0) coefficient = c*sqrt(2).
	if math.Abs(real(spec[0])-4.2*math.Sqrt2) > 1e-12 {
		t.Fatalf("constant coefficient %v", spec[0])
	}
	if math.Abs(tr.MeanOfSpec(spec)-4.2) > 1e-12 {
		t.Fatalf("mean %v", tr.MeanOfSpec(spec))
	}
	for i := 1; i < len(spec); i++ {
		if cmplx.Abs(spec[i]) > 1e-12 {
			t.Fatalf("constant field has nonzero coefficient %d: %v", i, spec[i])
		}
	}
}

// Y_1^0 is proportional to mu = sin(lat); its Laplacian eigenvalue must be
// -2/a^2 (n=1).
func TestLaplacianEigenfunction(t *testing.T) {
	tr := NewTransform(Rhomboidal(8), 24, 30)
	grid := make([]float64, 24*30)
	for j := 0; j < 24; j++ {
		for i := 0; i < 30; i++ {
			grid[j*30+i] = tr.Mu(j)
		}
	}
	spec := tr.Analyze(grid)
	lap := tr.Laplacian(append([]complex128(nil), spec...))
	gl := tr.Synthesize(lap)
	a2 := sphere.Radius * sphere.Radius
	for j := 0; j < 24; j++ {
		want := -2 / a2 * tr.Mu(j)
		if math.Abs(gl[j*30]-want) > 1e-15 {
			t.Fatalf("laplacian of mu at row %d: %v want %v", j, gl[j*30], want)
		}
	}
}

func TestSynthesizeWithDerivsLongitude(t *testing.T) {
	tr := NewTransform(Rhomboidal(8), 24, 30)
	// f = cos(lat)^2 * sin(2*lon) is band-limited; df/dlon = 2 cos^2 cos(2*lon).
	grid := make([]float64, 24*30)
	for j := 0; j < 24; j++ {
		c2 := 1 - tr.Mu(j)*tr.Mu(j)
		for i := 0; i < 30; i++ {
			lon := 2 * math.Pi * float64(i) / 30
			grid[j*30+i] = c2 * math.Sin(2*lon)
		}
	}
	spec := tr.Analyze(grid)
	f, dfdl, hmu := make([]float64, 24*30), make([]float64, 24*30), make([]float64, 24*30)
	tr.SynthesizeWithDerivsInto(f, dfdl, hmu, spec, nil)
	for j := 0; j < 24; j++ {
		c2 := 1 - tr.Mu(j)*tr.Mu(j)
		for i := 0; i < 30; i++ {
			lon := 2 * math.Pi * float64(i) / 30
			if math.Abs(f[j*30+i]-grid[j*30+i]) > 1e-10 {
				t.Fatalf("synthesis mismatch at (%d,%d)", j, i)
			}
			want := 2 * c2 * math.Cos(2*lon)
			if math.Abs(dfdl[j*30+i]-want) > 1e-9 {
				t.Fatalf("dfdl at (%d,%d) = %v want %v", j, i, dfdl[j*30+i], want)
			}
		}
	}
}

func TestSynthesizeWithDerivsMeridional(t *testing.T) {
	tr := NewTransform(Rhomboidal(8), 24, 30)
	// f = mu^2: (1-mu^2) df/dmu = 2 mu (1-mu^2).
	grid := make([]float64, 24*30)
	for j := 0; j < 24; j++ {
		for i := 0; i < 30; i++ {
			grid[j*30+i] = tr.Mu(j) * tr.Mu(j)
		}
	}
	spec := tr.Analyze(grid)
	f, dfdl, hmu := make([]float64, 24*30), make([]float64, 24*30), make([]float64, 24*30)
	tr.SynthesizeWithDerivsInto(f, dfdl, hmu, spec, nil)
	for j := 0; j < 24; j++ {
		mu := tr.Mu(j)
		want := 2 * mu * (1 - mu*mu)
		if math.Abs(hmu[j*30]-want) > 1e-9 {
			t.Fatalf("hmu at %d = %v want %v", j, hmu[j*30], want)
		}
	}
}

// For a purely rotational flow from a streamfunction psi = mu (solid-body
// rotation), U = u cos(lat) should be (1-mu^2)/a and V = 0, and the
// vorticity synthesized back from (U,V) must match.
func TestSynthesizeUVSolidBody(t *testing.T) {
	tr := NewTransform(Rhomboidal(8), 24, 30)
	n, m := 1, 0
	// zeta = Laplacian(psi) with psi = a^2? Build zeta directly: psi=mu has
	// spectral content at (0,1) only; zeta = -n(n+1)/a^2 psi = -2 mu/a^2.
	grid := make([]float64, 24*30)
	for j := 0; j < 24; j++ {
		for i := 0; i < 30; i++ {
			grid[j*30+i] = -2 * tr.Mu(j) // a^2 * zeta for psi = a^2 mu... use psi = mu
		}
	}
	_ = n
	_ = m
	a2 := sphere.Radius * sphere.Radius
	for i := range grid {
		grid[i] /= a2 // zeta for psi = mu
	}
	zeta := tr.Analyze(grid)
	div := make([]complex128, tr.Trunc.Count())
	U, V := tr.SynthesizeUV(zeta, div)
	for j := 0; j < 24; j++ {
		mu := tr.Mu(j)
		// U = -H(psi)/a = -(1-mu^2) dpsi/dmu / a = -(1-mu^2)/a for psi=mu.
		want := -(1 - mu*mu) / sphere.Radius
		if math.Abs(U[j*30]-want) > 1e-12*math.Abs(want)+1e-18 {
			t.Fatalf("U at %d = %v want %v", j, U[j*30], want)
		}
		if math.Abs(V[j*30]) > 1e-16 {
			t.Fatalf("V at %d = %v want 0", j, V[j*30])
		}
	}
}

// Round trip: random band-limited vorticity/divergence -> (U,V) ->
// VortDivTend of the uniform-advection fluxes is consistency-checked via
// the divergence identity: analyzing (U,V) as a "flux" with X=1 recovers
// minus the vorticity and the divergence.
func TestUVDivergenceIdentity(t *testing.T) {
	tr := NewTransform(Rhomboidal(6), 20, 24)
	rng := rand.New(rand.NewSource(9))
	mk := func() []complex128 {
		s := make([]complex128, tr.Trunc.Count())
		for m := 0; m <= 6; m++ {
			for n := m; n <= m+6; n++ {
				if n == 0 {
					continue
				}
				if n > 10 {
					continue // keep well inside truncation so products stay band-limited
				}
				im := rng.NormFloat64()
				if m == 0 {
					im = 0
				}
				s[tr.Trunc.Index(m, n)] = complex(rng.NormFloat64(), im) * 1e-5
			}
		}
		return s
	}
	zeta := mk()
	div := mk()
	U, V := tr.SynthesizeUV(zeta, div)
	// With X = 1: A = U, B = V. Then
	// curl part: -1/(a(1-mu2)) dU/dl - 1/a dV/dmu = -zeta
	// div part: 1/(a(1-mu2)) dV/dl - 1/a dU/dmu ... careful: divergence of
	// (u,v) is 1/(a(1-mu2)) dU/dl + 1/a dV/dmu; and vorticity is
	// 1/(a(1-mu2)) dV/dl - 1/a dU/dmu.
	divBack := make([]complex128, tr.Trunc.Count())
	vortBack := make([]complex128, tr.Trunc.Count())
	tr.AnalyzeDivFormInto(divBack, U, V, 1, 1, nil)
	tr.AnalyzeDivFormInto(vortBack, V, U, 1, -1, nil)
	for i := range zeta {
		if cmplx.Abs(divBack[i]-div[i]) > 1e-9*(1+cmplx.Abs(div[i])) {
			t.Fatalf("divergence identity fails at %d: %v vs %v", i, divBack[i], div[i])
		}
		if cmplx.Abs(vortBack[i]-zeta[i]) > 1e-9*(1+cmplx.Abs(zeta[i])) {
			t.Fatalf("vorticity identity fails at %d: %v vs %v", i, vortBack[i], zeta[i])
		}
	}
}

// Property: Analyze is the left inverse of Synthesize for random
// band-limited spectra across random truncations.
func TestTransformRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		M := 2 + rng.Intn(8)
		tr := NewTransform(Rhomboidal(M), 4*(M+1), 4*(M+1)+2)
		spec := make([]complex128, tr.Trunc.Count())
		for m := 0; m <= M; m++ {
			for n := m; n <= m+M; n++ {
				im := rng.NormFloat64()
				if m == 0 {
					im = 0
				}
				spec[tr.Trunc.Index(m, n)] = complex(rng.NormFloat64(), im)
			}
		}
		back := tr.Analyze(tr.Synthesize(spec))
		for i := range spec {
			if cmplx.Abs(back[i]-spec[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
