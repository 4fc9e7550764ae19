package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestReports runs the cheap experiments at Short and checks the report
// path that foam-bench prints: each Result carries uniquely named metrics
// usable as benchmark units, and its report holds the experiment's key
// lines. Timing values are not checked.
func TestReports(t *testing.T) {
	cases := []struct {
		run  func(Size, int) (*Result, error)
		id   string
		want []string
	}{
		{E1, "E1", []string{"--- 16 atm + 1 ocn ranks", "--- 32 atm + 2 ocn ranks", "ocean busy"}},
		{E4, "E4", []string{"sim-days/day", "latitude-pair decomposition"}},
		{E5, "E5", []string{"grid 64x64x8", "computation-per-simulated-time advantage"}},
		{E8, "E8", []string{"R5", "R10", "fitted exponent"}},
		{E9, "E9", []string{"precipitation on land", "routing residual"}},
		{E10, "E10", []string{"FOAM (split, slowdown 16, subcycled)", "unsplit + physical gravity (baseline)"}},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			res, err := tc.run(Short, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) == 0 {
				t.Fatal("no metrics")
			}
			seen := map[string]bool{}
			for _, m := range res.Metrics {
				if seen[m.Name] {
					t.Errorf("duplicate metric %q", m.Name)
				}
				seen[m.Name] = true
				if m.Name == "" || strings.ContainsAny(m.Name, " \t\n") {
					t.Errorf("metric name %q is not a benchmark unit", m.Name)
				}
			}
			var buf bytes.Buffer
			if _, err := res.Report.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			for _, line := range tc.want {
				if !strings.Contains(buf.String(), line) {
					t.Errorf("report lacks %q:\n%s", line, buf.String())
				}
			}
		})
	}
}
