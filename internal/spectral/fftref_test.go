package spectral

import (
	"math/cmplx"
)

// The complex128 reference FFT. It is the recursive decimation-in-time
// form of the transform the split engine runs iteratively; the split
// kernels reproduce its arithmetic operation for operation, and
// splitident_test.go holds them to it bit for bit.

// refTransform computes the unnormalized forward (or, with inverse, the
// conjugate-twiddle) DFT of src into dst. dst and src must not overlap.
func (f *FFT) refTransform(dst, src []complex128, inverse bool) {
	if f.factors == nil {
		for k := 0; k < f.n; k++ {
			sum := complex(0, 0)
			for j := 0; j < f.n; j++ {
				w := f.twiddle[(j*k)%f.n]
				if inverse {
					w = cmplx.Conj(w)
				}
				sum += w * src[j]
			}
			dst[k] = sum
		}
		return
	}
	f.recurse(dst, src, f.n, 1, 0, inverse)
}

// recurse performs a decimation-in-time mixed-radix FFT of length size over
// work[0], work[stride], ... writing the result contiguously into
// dst[0:size]. depth indexes into f.factors.
func (f *FFT) recurse(dst, work []complex128, size, stride, depth int, inverse bool) {
	if size == 1 {
		dst[0] = work[0]
		return
	}
	p := f.factors[depth]
	m := size / p
	// Transform the p interleaved subsequences.
	for r := 0; r < p; r++ {
		f.recurse(dst[r*m:(r+1)*m], work[r*stride:], m, stride*p, depth+1, inverse)
	}
	// Combine: X[k + q*m] = sum_r W^{r(k+qm)} * Sub_r[k].
	var tmp [5]complex128 // radices are at most 5
	twStep := f.n / size
	for k := 0; k < m; k++ {
		for r := 0; r < p; r++ {
			tmp[r] = dst[r*m+k]
		}
		for q := 0; q < p; q++ {
			idx := k + q*m
			sum := complex(0, 0)
			for r := 0; r < p; r++ {
				w := f.twiddle[(r*idx*twStep)%f.n]
				if inverse {
					w = cmplx.Conj(w)
				}
				sum += w * tmp[r]
			}
			dst[idx] = sum
		}
	}
}

// refAnalyzeReal is the complex reference of AnalyzeRealSplitInto.
func (f *FFT) refAnalyzeReal(dst []complex128, x []float64, mmax int) {
	buf := make([]complex128, f.n)
	out := make([]complex128, f.n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	f.refTransform(out, buf, false)
	scale := complex(1/float64(f.n), 0)
	for m := 0; m <= mmax; m++ {
		dst[m] = out[m] * scale
	}
}

// refSynthesizeReal is the complex reference of SynthesizeRealSplitInto:
// the inverse transform's 1/n scaling and the *n undo are applied in the
// same order.
func (f *FFT) refSynthesizeReal(dst []float64, coefs []complex128) {
	mmax := len(coefs) - 1
	buf := make([]complex128, f.n)
	out := make([]complex128, f.n)
	buf[0] = complex(real(coefs[0]), 0)
	for m := 1; m <= mmax; m++ {
		buf[m] = coefs[m]
		buf[f.n-m] = cmplx.Conj(coefs[m])
	}
	f.refTransform(out, buf, true)
	inv := complex(1/float64(f.n), 0)
	n := float64(f.n)
	for j := 0; j < f.n; j++ {
		dst[j] = real(out[j]*inv) * n
	}
}

// refLowPassReal is the complex reference of LowPassRealInto: forward,
// truncate, inverse with the 1/n normalization as a complex multiply.
func (f *FFT) refLowPassReal(row []float64, keep int) {
	n := f.n
	if keep >= n/2 {
		return
	}
	buf := make([]complex128, n)
	out := make([]complex128, n)
	for i, v := range row {
		buf[i] = complex(v, 0)
	}
	f.refTransform(out, buf, false)
	for m := keep + 1; m <= n-keep-1; m++ {
		out[m] = 0
	}
	f.refTransform(buf, out, true)
	inv := complex(1/float64(n), 0)
	for i := range row {
		row[i] = real(buf[i] * inv)
	}
}
