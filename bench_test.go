// The root package's benchmark harness: one sub-benchmark per evaluation
// artifact of the paper, each running the internal/experiments definition
// that cmd/foam-bench prints (see DESIGN.md section 4 for the index), at
// the Short size and reporting the experiment's metrics.
package foam_test

import (
	"fmt"
	"testing"

	"foam"
	"foam/internal/experiments"
)

// BenchmarkExperiments runs E1-E11 as sub-benchmarks E1 ... E11.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(experiments.Short, 1)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res.Metrics {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		})
	}
}

// BenchmarkCoupledStepParallel (E12) times one coupled step of the reduced
// configuration under the shared-memory worker pool at several worker
// counts. workers=1 is the exact serial path; every other count produces
// bit-identical prognostic state (see TestWorkersMatchSerial), so the
// sub-benchmarks measure pure scheduling overhead vs. speedup.
func BenchmarkCoupledStepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := foam.ReducedConfig()
			cfg.Workers = workers
			m, err := foam.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			m.StepDays(0.5) // spin past initialization transients
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
		})
	}
}
