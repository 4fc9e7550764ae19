package ocean

import (
	"math"
	"testing"

	"foam/internal/pool"
)

// runVariantCompare steps a model variant once serially and once on a
// two-worker pool and requires the two states to agree exactly.
func runVariantCompare(t *testing.T, label string, mod func(*Config)) {
	cfg := testConfig()
	mod(&cfg)
	kmt := basinKMT(cfg)
	n := cfg.NLat * cfg.NLon
	f := NewForcing(n)
	serial, _ := New(cfg, kmt)
	for j := 0; j < cfg.NLat; j++ {
		lat := serial.grid.Lats[j]
		for i := 0; i < cfg.NLon; i++ {
			c := j*cfg.NLon + i
			f.TauX[c] = -0.08 * math.Cos(3*lat)
			f.Heat[c] = 100 * math.Cos(lat)
		}
	}
	serial.Step(f)
	pooled, _ := New(cfg, kmt)
	p := pool.New(2)
	defer p.Close()
	pooled.SetPool(p)
	pooled.Step(f)
	worst := 0.0
	wname, wc := "", 0
	chk := func(name string, a, b []float64) {
		for c := 0; c < n; c++ {
			if d := math.Abs(a[c] - b[c]); d > worst {
				worst, wname, wc = d, name, c
			}
		}
	}
	for k := 0; k < cfg.NLev; k++ {
		chk("u", serial.u[k], pooled.u[k])
		chk("t", serial.t[k], pooled.t[k])
	}
	chk("ubt", serial.ubt, pooled.ubt)
	if worst != 0 {
		t.Errorf("%s: pooled differs from serial by %.3e (%s at j%d,i%d)",
			label, worst, wname, wc/cfg.NLon, wc%cfg.NLon)
	}
}

// TestNarrowResidual runs the pooled-versus-serial comparison over model
// variants that switch whole kernels off (polar filter, subcycling,
// momentum advection, biharmonic friction), so a pool mismatch can be
// narrowed to the kernel that causes it.

func TestNarrowResidual(t *testing.T) {
	runVariantCompare(t, "default", func(c *Config) {})
	runVariantCompare(t, "nofilter", func(c *Config) { c.PolarFilterLat = 89 })
	runVariantCompare(t, "1subcycle", func(c *Config) { c.DtInternal = c.DtTracer; c.DtBaro = c.DtTracer })
	runVariantCompare(t, "nofilter+1sub", func(c *Config) {
		c.PolarFilterLat = 89
		c.DtInternal = c.DtTracer
		c.DtBaro = c.DtTracer
	})
	runVariantCompare(t, "noadv+nobih+nofilter+1sub", func(c *Config) {
		c.PolarFilterLat = 89
		c.DtInternal = c.DtTracer
		c.DtBaro = c.DtTracer
		c.NoMomentumAdvection = true
		c.NoBiharmonic = true
	})
}
