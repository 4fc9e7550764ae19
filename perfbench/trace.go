package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around the public function it calls. Spans of one request or
// one coupling cycle share Req; Parent indexes the span that caused this
// one (-1 for a root). Times are nanoseconds since the tracer started.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Self   int64  `json:"self_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same with tracing on and off.
type Tracer struct {
	t0 time.Time
	//foam:guards spans
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<14)}
}

// Begin opens a span and returns its id (-1 when tracing is off).
func (t *Tracer) Begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns the closed spans with self time filled in: a span's
// duration minus the part of it its direct children cover.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return selfTimes(out)
}

func selfTimes(spans []Span) []Span {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < 0 {
			continue
		}
		s.Self = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return spans
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// LayerStat summarises the spans of one name.
type LayerStat struct {
	Name     string
	Count    int
	TotalMs  float64
	SelfMs   float64
	MedianMs float64
}

// Summarize groups spans by name, sorted by descending self time.
func Summarize(spans []Span) []LayerStat {
	durs := map[string][]float64{}
	selfs := map[string]float64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		selfs[s.Name] += float64(s.Self) / 1e6
	}
	out := make([]LayerStat, 0, len(durs))
	for name, d := range durs {
		out = append(out, LayerStat{
			Name: name, Count: len(d),
			TotalMs: sum(d), SelfMs: selfs[name], MedianMs: median(d),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].SelfMs, out[j].SelfMs; a > b || a < b {
			return a > b
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// durationsMs returns the durations of the closed spans named name.
func durationsMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs returns the summed self time of the closed spans named name.
func selfMs(spans []Span, name string) float64 {
	var total int64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			total += s.Self
		}
	}
	return float64(total) / 1e6
}

// WriteSpans writes one JSON object per span to path, creating its
// directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable writes the per-layer self-time table.
func printSelfTable(w io.Writer, stats []LayerStat) {
	fmt.Fprintf(w, "# %-36s %7s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "# %-36s %7d %12.3f %12.3f %12.4f\n", s.Name, s.Count, s.TotalMs, s.SelfMs, s.MedianMs)
	}
}
