package ocean

import (
	"math"
	"testing"

	"foam/internal/pool"
)

// TestSharedPoolMatchesSerial is the decisive parallel-correctness test of
// the ocean: stepping with the worker pool must be bit-identical (==, not
// approximately) to the serial driver for any worker count, on every
// prognostic field. Both the split and unsplit free-surface
// paths are exercised.
func TestSharedPoolMatchesSerial(t *testing.T) {
	for _, split := range []bool{true, false} {
		cfg := testConfig()
		cfg.Split = split
		kmt := basinKMT(cfg)
		n := cfg.NLat * cfg.NLon

		f := NewForcing(n)
		serial, err := New(cfg, kmt)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < cfg.NLat; j++ {
			lat := serial.grid.Lats[j]
			for i := 0; i < cfg.NLon; i++ {
				c := j*cfg.NLon + i
				f.TauX[c] = -0.08 * math.Cos(3*lat)
				f.Heat[c] = 100 * math.Cos(lat)
				f.FreshWater[c] = 2e-5 * math.Sin(lat)
			}
		}

		const steps = 5
		for s := 0; s < steps; s++ {
			serial.Step(f)
		}

		for _, workers := range []int{2, 3, 7} {
			got, err := New(cfg, kmt)
			if err != nil {
				t.Fatal(err)
			}
			p := pool.New(workers)
			got.SetPool(p)
			for s := 0; s < steps; s++ {
				got.Step(f)
			}
			p.Close()

			fields := map[string][2][][]float64{
				"u": {serial.u, got.u},
				"v": {serial.v, got.v},
				"t": {serial.t, got.t},
				"s": {serial.s, got.s},
			}
			for name, pair := range fields {
				for k := 0; k < cfg.NLev; k++ {
					for c := 0; c < n; c++ {
						if pair[0][k][c] != pair[1][k][c] {
							t.Fatalf("split=%v workers=%d field %s level %d cell %d: serial %v pool %v",
								split, workers, name, k, c, pair[0][k][c], pair[1][k][c])
						}
					}
				}
			}
			for c := 0; c < n; c++ {
				if serial.eta[c] != got.eta[c] || serial.ubt[c] != got.ubt[c] ||
					serial.vbt[c] != got.vbt[c] || serial.iceFlux[c] != got.iceFlux[c] {
					t.Fatalf("split=%v workers=%d surface state mismatch at cell %d", split, workers, c)
				}
			}
			if serial.diag != got.diag {
				t.Fatalf("split=%v workers=%d diagnostics differ: %+v vs %+v", split, workers, serial.diag, got.diag)
			}
		}
	}
}
