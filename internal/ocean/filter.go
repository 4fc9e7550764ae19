package ocean

import (
	"math"

	"foam/internal/spectral"
)

// rowFilter is the polar Fourier filter: on rows poleward of the filter
// latitude, zonal wavenumbers above m_max * cos(lat)/cos(latFilter) are
// removed, relaxing the CFL restriction of the converging meridians — the
// "spatial filter similar to the sort used in atmospheric models" of the
// paper's Section 4.2.
type rowFilter struct {
	fft *spectral.FFT
	s   *spectral.FFTScratch
	row []float64 // staging row for polarFilter
}

func newRowFilter(nlon int) *rowFilter {
	fft := spectral.NewFFT(nlon)
	return &rowFilter{fft: fft, s: fft.NewScratch(), row: make([]float64, nlon)}
}

// polarFilter filters the prognostic fields on rows poleward of the
// configured latitude. Land values are preserved by filtering the deviation
// over water only when the row contains land (a masked row is filtered in
// its ocean segments' mean sense). rf is the caller's row filter (its
// buffers are mutated); the shared-memory driver passes per-worker filters.
func (m *Model) polarFilter(rf *rowFilter, j0, j1 int) {
	nlon := m.cfg.NLon
	latF := m.cfg.PolarFilterLat * math.Pi / 180
	cosF := math.Cos(latF)
	row := rf.row
	for j := j0; j < j1; j++ {
		lat := math.Abs(m.grid.Lats[j])
		if lat <= latF {
			continue
		}
		keep := int(float64(nlon/3) * math.Cos(lat) / cosF)
		if keep < 2 {
			keep = 2
		}
		filterField := func(fld []float64, k int) {
			// Fill land with the row-mean ocean value so the filter does
			// not smear land values into the ocean.
			var mean float64
			var cnt int
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k < m.kmt[c] {
					mean += fld[c]
					cnt++
				}
			}
			if cnt == 0 {
				return
			}
			mean /= float64(cnt)
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k < m.kmt[c] {
					row[i] = fld[c]
				} else {
					row[i] = mean
				}
			}
			rf.fft.LowPassRealInto(row, keep, rf.s)
			for i := 0; i < nlon; i++ {
				c := j*nlon + i
				if k < m.kmt[c] {
					fld[c] = row[i]
				}
			}
		}
		for k := 0; k < m.cfg.NLev; k++ {
			filterField(m.u[k], k)
			filterField(m.v[k], k)
			filterField(m.t[k], k)
			filterField(m.s[k], k)
		}
		filterField(m.eta, 0)
		filterField(m.ubt, 0)
		filterField(m.vbt, 0)
	}
}
