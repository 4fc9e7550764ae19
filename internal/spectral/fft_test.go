package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// splitTransform runs the engine's unnormalized split transform (forward,
// or conjugate-twiddle with inverse) on complex data.
func splitTransform(f *FFT, src []complex128, inverse bool) []complex128 {
	n := f.N()
	srcRe, srcIm := make([]float64, n), make([]float64, n)
	for i, v := range src {
		srcRe[i], srcIm[i] = real(v), imag(v)
	}
	dstRe, dstIm := make([]float64, n), make([]float64, n)
	f.transformSplitNoAlias(dstRe, dstIm, srcRe, srcIm, f.NewScratch(), inverse)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(dstRe[i], dstIm[i])
	}
	return out
}

func maxErrC(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 20, 48, 60, 128} {
		f := NewFFT(n)
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := splitTransform(f, src, false)
		want := make([]complex128, n)
		for k := 0; k < n; k++ {
			var s complex128
			for j := 0; j < n; j++ {
				ang := -2 * math.Pi * float64(j*k) / float64(n)
				s += src[j] * cmplx.Exp(complex(0, ang))
			}
			want[k] = s
		}
		if e := maxErrC(got, want); e > 1e-10*float64(n) {
			t.Fatalf("n=%d FFT differs from DFT by %v", n, e)
		}
	}
}

func TestFFTNonSmoothLengthFallback(t *testing.T) {
	// 7 and 11 are not 2/3/5-smooth; the direct path must still be exact.
	for _, n := range []int{7, 11, 13} {
		f := NewFFT(n)
		src := make([]complex128, n)
		src[1] = 1 // delta at 1: transform is e^{-2*pi*i*k/n}
		got := splitTransform(f, src, false)
		for k := 0; k < n; k++ {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
			if cmplx.Abs(got[k]-want) > 1e-12 {
				t.Fatalf("n=%d k=%d got %v want %v", n, k, got[k], want)
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := NewFFT(48)
	rng := rand.New(rand.NewSource(7))
	src := make([]complex128, 48)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	back := splitTransform(f, splitTransform(f, src, false), true)
	for i := range back {
		back[i] /= 48
	}
	if e := maxErrC(back, src); e > 1e-12 {
		t.Fatalf("round trip error %v", e)
	}
}

func TestFFTLinearity(t *testing.T) {
	f := NewFFT(30)
	rng := rand.New(rand.NewSource(3))
	a := make([]complex128, 30)
	b := make([]complex128, 30)
	ab := make([]complex128, 30)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		ab[i] = 2*a[i] + 3*b[i]
	}
	fa, fb, fab := splitTransform(f, a, false), splitTransform(f, b, false), splitTransform(f, ab, false)
	for i := range fa {
		want := 2*fa[i] + 3*fb[i]
		if cmplx.Abs(fab[i]-want) > 1e-10 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		fft := NewFFT(n)
		src := make([]complex128, n)
		sum := 0.0
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum += real(src[i])*real(src[i]) + imag(src[i])*imag(src[i])
		}
		fsum := 0.0
		for _, v := range splitTransform(fft, src, false) {
			fsum += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(fsum/float64(n)-sum) < 1e-8*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRealKnownWave(t *testing.T) {
	n := 48
	f := NewFFT(n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		lam := 2 * math.Pi * float64(j) / float64(n)
		x[j] = 1.5 + 2*math.Cos(3*lam) - 4*math.Sin(5*lam)
	}
	re, im := make([]float64, 9), make([]float64, 9)
	f.AnalyzeRealSplitInto(re, im, x, 8, f.NewScratch())
	coef := func(m int) complex128 { return complex(re[m], im[m]) }
	// cos(3l): F_3 = 1 (since 2*Re(F_3 e^{i3l}) with F_3 = 1).
	// -4 sin(5l) = -4*(e^{i5l}-e^{-i5l})/(2i): F_5 = -4/(2i)*... => F_5 = 2i.
	if cmplx.Abs(coef(0)-1.5) > 1e-12 {
		t.Fatalf("F0=%v", coef(0))
	}
	if cmplx.Abs(coef(3)-1) > 1e-12 {
		t.Fatalf("F3=%v", coef(3))
	}
	if cmplx.Abs(coef(5)-complex(0, 2)) > 1e-12 {
		t.Fatalf("F5=%v", coef(5))
	}
	if cmplx.Abs(coef(4)) > 1e-12 || cmplx.Abs(coef(8)) > 1e-12 {
		t.Fatalf("spurious coefficients %v %v", coef(4), coef(8))
	}
}

func TestRealRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + 2*rng.Intn(24) // even length
		fft := NewFFT(n)
		s := fft.NewScratch()
		mmax := n/2 - 1
		// Build a band-limited real signal from random coefficients.
		re, im := make([]float64, mmax+1), make([]float64, mmax+1)
		re[0] = rng.NormFloat64()
		for m := 1; m <= mmax; m++ {
			re[m], im[m] = rng.NormFloat64(), rng.NormFloat64()
		}
		x := make([]float64, n)
		fft.SynthesizeRealSplitInto(x, re, im, s)
		backRe, backIm := make([]float64, mmax+1), make([]float64, mmax+1)
		fft.AnalyzeRealSplitInto(backRe, backIm, x, mmax, s)
		for m := 0; m <= mmax; m++ {
			if cmplx.Abs(complex(backRe[m]-re[m], backIm[m]-im[m])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
