package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
)

// Metric names one reported number. The catalogs below are the single list
// the benchmark prints; BENCHMARK.json at the repository root declares the
// same names (TestCatalogMatchesBenchmarkJSON keeps them in step).
type Metric struct {
	Name, Unit, Better string
}

// endToEnd are the untraced metrics every workload reports. An "op" is the
// workload's unit of work: one schedule cycle (coupled-r15), one advance
// request (serve-r5), one fork/snapshot/resume/compare/delete lifecycle
// (lifecycle-r5). Every loop is closed, so work completed per second is the
// gated speed metric: a closed loop's mean op latency is its client count
// over its throughput. Latency quantiles are printed as report lines.
var endToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the traced-run metrics every workload reports. Layer
// timings carry .w1 (serial) and .wN (nproc workers) suffixes.
var perLayer = []Metric{
	{"atmos.step_ms.w1", "ms", "lower"},
	{"atmos.step_ms.wN", "ms", "lower"},
	{"atmos.step_rad_ms.w1", "ms", "lower"},
	{"atmos.step_rad_ms.wN", "ms", "lower"},
	{"ocean.step_ms.w1", "ms", "lower"},
	{"ocean.step_ms.wN", "ms", "lower"},
	{"coupler.interval_ms.w1", "ms", "lower"},
	{"coupler.interval_ms.wN", "ms", "lower"},
	{"core.interval_ms.w1", "ms", "lower"},
	{"core.interval_ms.wN", "ms", "lower"},
	{"core.atm_ocn_cost_ratio", "ratio", "higher"},
	{"layer.atmos_self_pct", "%", "lower"},
	{"layer.ocean_self_pct", "%", "lower"},
	{"layer.coupler_self_pct", "%", "lower"},
	{"pool.speedup.atmos", "x", "higher"},
	{"pool.speedup.ocean", "x", "higher"},
	{"spectral.analyze_many_us", "us", "lower"},
	{"spectral.synthesize_uv_many_us", "us", "lower"},
	{"spectral.analyze_many_computed_bytes", "B", "lower"},
	{"spectral.synthesize_uv_many_computed_bytes", "B", "lower"},
	{"core.checkpoint_ms", "ms", "lower"},
	{"core.save_ms", "ms", "lower"},
	{"core.save_bytes", "B", "lower"},
	{"core.load_ms", "ms", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"scenario.build_ms", "ms", "lower"},
	{"core.build_tables_ms", "ms", "lower"},
	{"core.new_model_ms", "ms", "lower"},
	{"ensemble.create_ms", "ms", "lower"},
	{"ensemble.fork_ms", "ms", "lower"},
	{"ensemble.advance_ms", "ms", "lower"},
	{"ensemble.wait_ms", "ms", "lower"},
	{"ensemble.table_sets", "count", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"serve.snapshot_bytes", "B", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// buildResult fills the catalog's metrics from vals. A catalog metric
// missing from vals, or a value that is not finite, is an error: the
// benchmark never prints a partial metric set.
func buildResult(cat []Metric, vals map[string]float64, attempted, failed int) (Result, error) {
	r := Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Value{}}
	for _, m := range cat {
		v, ok := vals[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		r.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return r, nil
}

func writeResult(w io.Writer, r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none); xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of p90/p99/p99.9 that has at least
// ten samples beyond it, with its label; ok is false below 100 samples.
func tailPercentile(xs []float64) (label string, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return fmt.Sprintf("p%g", p), percentile(xs, p), true
		}
	}
	return "", 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapPeak tracks the peak live Go heap: the bytes the latest garbage
// collection marked live, sampled at operation boundaries by whichever
// goroutine finished the operation. Unlike the heap's current size, which
// also holds garbage awaiting the next collection, this does not depend on
// when collections happen to run. Sampling reads runtime/metrics, which
// does not stop the world.
type heapPeak struct {
	peak atomic.Uint64
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// settle collects garbage and samples, so the peak includes the live heap
// at the end of the timed phase even when no collection ran during it.
func (h *heapPeak) settle() {
	runtime.GC()
	h.sample()
}

func (h *heapPeak) mb() float64 { return float64(h.peak.Load()) / 1e6 }

// layerVals derives the span-based per-layer metrics. native is the worker
// suffix the workload itself runs at (".wN" for coupled-r15, ".w1" for
// ensemble members); the cost ratio and self-time shares are taken there.
func layerVals(vals map[string]float64, spans []Span, native string) {
	med := func(name string) float64 { return median(durationsMs(spans, name)) }
	for _, sfx := range []string{".w1", ".wN"} {
		vals["atmos.step_ms"+sfx] = med("atmos.step" + sfx)
		vals["atmos.step_rad_ms"+sfx] = med("atmos.step_rad" + sfx)
		vals["ocean.step_ms"+sfx] = med("ocean.step" + sfx)
		vals["core.interval_ms"+sfx] = med("core.interval" + sfx)
		vals["coupler.interval_ms"+sfx] = median(couplerPerInterval(spans, sfx))
	}
	atm := selfMs(spans, "atmos.step"+native) + selfMs(spans, "atmos.step_rad"+native)
	ocn := selfMs(spans, "ocean.step"+native)
	cpl := selfMs(spans, "coupler.drain"+native) + selfMs(spans, "coupler.absorb"+native) +
		selfMs(spans, "coupler.advect_ice"+native)
	cycles := sum(durationsMs(spans, "core.cycle"+native))
	vals["core.atm_ocn_cost_ratio"] = atm / ocn
	vals["layer.atmos_self_pct"] = 100 * atm / cycles
	vals["layer.ocean_self_pct"] = 100 * ocn / cycles
	vals["layer.coupler_self_pct"] = 100 * cpl / cycles
	vals["pool.speedup.atmos"] = vals["atmos.step_ms.w1"] / vals["atmos.step_ms.wN"]
	vals["pool.speedup.ocean"] = vals["ocean.step_ms.w1"] / vals["ocean.step_ms.wN"]
	vals["spectral.analyze_many_us"] = 1000 * med("spectral.analyze_many")
	vals["spectral.synthesize_uv_many_us"] = 1000 * med("spectral.synthesize_uv_many")
	for _, n := range []string{"core.checkpoint", "core.save", "core.load", "core.restore",
		"scenario.build", "core.build_tables", "core.new_model",
		"ensemble.create", "ensemble.fork", "ensemble.advance"} {
		vals[n+"_ms"] = med(n)
	}
	vals["serve.handler_ms"], vals["serve.transport_ms"] = handlerSplit(spans)
}

// couplerPerInterval sums the coupler spans of each coupling interval.
func couplerPerInterval(spans []Span, sfx string) []float64 {
	per := map[int]float64{}
	for _, s := range spans {
		switch s.Name {
		case "coupler.drain" + sfx, "coupler.absorb" + sfx, "coupler.advect_ice" + sfx:
			per[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]float64, 0, len(per))
	for _, v := range per {
		out = append(out, v)
	}
	return out
}
