package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"foam/internal/core"
	"foam/internal/ensemble"
	"foam/internal/scenario"
)

// r5Model builds the seed-1 member configuration's standalone model and
// its tables.
func r5Model(t *testing.T) (*core.Model, *core.Tables) {
	t.Helper()
	m, tb, err := setupModel(memberSpecs(1, 1)[0], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, tb
}

// copyCheckpoint deep-copies a checkpoint through its gob encoding.
func copyCheckpoint(t *testing.T, ck *core.Checkpoint) *core.Checkpoint {
	t.Helper()
	b, err := encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.LoadCheckpoint(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayGateRejectsNudgedSST runs the coupled-r15 gate on the r5 rung:
// a cycle replayed from a checkpoint matches the stepped model, and the
// same replay from a copy with one SST cell nudged by one ulp does not.
func TestReplayGateRejectsNudgedSST(t *testing.T) {
	m, tb := r5Model(t)
	cyc := cycleTicks(m.Config())
	for i := 0; i < cyc; i++ {
		m.Step()
	}
	before := m.Checkpoint()
	for i := 0; i < cyc; i++ {
		m.Step()
	}
	ref, err := replay(m.Config(), tb, before, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameState("replay", ref, m.Checkpoint()); err != nil {
		t.Fatalf("unperturbed replay rejected: %v", err)
	}

	nudged := copyCheckpoint(t, before)
	sst := nudged.Ocn.T[0]
	cell := slices.IndexFunc(sst, func(v float64) bool { return v > 10 })
	if cell < 0 {
		t.Fatal("no warm SST cell to nudge")
	}
	sst[cell] = math.Nextafter(sst[cell], math.Inf(1))
	if err := sameState("copy", before, nudged); err == nil {
		t.Fatal("nudged checkpoint compared equal to its source")
	}
	bad, err := replay(m.Config(), tb, nudged, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameState("replay", bad, m.Checkpoint()); err == nil {
		t.Fatal("replay from a nudged checkpoint passed the gate")
	}
}

// TestLayerDriveMatchesModelStep pins the traced drive to Model.Step on
// the r5 rung at one and two workers.
func TestLayerDriveMatchesModelStep(t *testing.T) {
	for _, workers := range []int{1, 2} {
		m, tb, err := setupModel(memberSpecs(3, 1)[0], workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		cyc := cycleTicks(m.Config())
		before := m.Checkpoint()
		d := newLayerDriver(m, ".w1")
		d.cycle(NewTracer(), 0)
		d.cycle(nil, 1)
		ref, err := replay(m.Config(), tb, before, 2*cyc)
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameState("drive", ref, d.aligned()); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

func TestSameSSTRejectsOneBit(t *testing.T) {
	a := ensemble.SSTField{NLat: 1, NLon: 3, SST: []float64{1, 2, 3}}
	b := ensemble.SSTField{NLat: 1, NLon: 3, SST: []float64{1, 2, 3}}
	if err := sameSST(a, b); err != nil {
		t.Fatal(err)
	}
	b.SST[1] = math.Nextafter(2, 3)
	if sameSST(a, b) == nil {
		t.Fatal("SST maps one ulp apart compared equal")
	}
	b.SST[1] = 2
	b.NLon = 4
	if sameSST(a, b) == nil {
		t.Fatal("SST maps of different shape compared equal")
	}
}

func sequence(seed uint64, client, clients, n int) []int {
	p := newPicker(seed, client, clients, members)
	out := make([]int, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

func TestRequestSequencesAreSeedDeterministic(t *testing.T) {
	for c := 0; c < 2; c++ {
		if !slices.Equal(sequence(7, c, 2, 200), sequence(7, c, 2, 200)) {
			t.Fatalf("client %d: one seed gave two sequences", c)
		}
		if slices.Equal(sequence(7, c, 2, 200), sequence(8, c, 2, 200)) {
			t.Fatalf("client %d: seeds 7 and 8 gave the same sequence", c)
		}
	}
	// Clients own disjoint members, and together all of them.
	seen := map[int]int{}
	for c := 0; c < 3; c++ {
		for _, i := range sequence(1, c, 3, 500) {
			if owner, ok := seen[i]; ok && owner != c {
				t.Fatalf("member %d picked by clients %d and %d", i, owner, c)
			}
			seen[i] = c
		}
	}
	if len(seen) != members {
		t.Fatalf("clients reached %d of %d members", len(seen), members)
	}
}

func TestMemberSpecsAreSeedDeterministic(t *testing.T) {
	a, b, c := memberSpecs(5, members), memberSpecs(5, members), memberSpecs(6, members)
	if !slices.EqualFunc(a, b, func(x, y scenario.Spec) bool { return slices.Equal(x.Deltas, y.Deltas) }) {
		t.Fatal("one seed gave two member sets")
	}
	if slices.EqualFunc(a, c, func(x, y scenario.Spec) bool { return slices.Equal(x.Deltas, y.Deltas) }) {
		t.Fatal("seeds 5 and 6 gave the same member set")
	}
}

func TestSelfTime(t *testing.T) {
	spans := selfTimes([]Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "c", Start: 50, End: 60, Parent: 2},
	})
	for i, want := range []int64{30, 20, 40, 10} {
		if spans[i].Self != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
	if got := covered([][2]int64{{0, 10}, {5, 20}, {30, 40}}, 0, 35); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}

// runBench runs the command and returns its exit code, standard output and
// the parsed last line.
func runBench(t *testing.T, args ...string) (int, string, Result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--trace-dir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r Result
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("last line is not a result: %v\n%s\nstderr: %s", err, out.String(), errb.String())
		}
	}
	return code, out.String(), r
}

// checkPrinted requires the result to hold exactly the catalog's metrics
// with their units, each also printed on a "# metric" line.
func checkPrinted(t *testing.T, out string, r Result, cat []Metric) {
	t.Helper()
	if len(r.Metrics) != len(cat) {
		t.Errorf("result holds %d metrics, catalog %d", len(r.Metrics), len(cat))
	}
	for _, m := range cat {
		v, ok := r.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", m.Name, v, m.Unit)
		}
		printed := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			printed = printed || len(f) == 5 && f[1] == "metric" && f[2] == m.Name && f[4] == m.Unit
		}
		if !printed {
			t.Errorf("metric %s not printed with unit %s", m.Name, m.Unit)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("result not clean: %+v", r)
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	workloads := []string{"serve-r5", "lifecycle-r5"}
	if !testing.Short() {
		workloads = append(workloads, "coupled-r15")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, r := runBench(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w, trace, code, out)
			}
			cat := endToEnd
			if trace == "1" {
				cat = perLayer
			}
			checkPrinted(t, out, r, cat)
			if !strings.Contains(out, "# failed_ratio ") {
				t.Errorf("%s trace=%s: failed_ratio not printed", w, trace)
			}
		}
	}
}

// TestFailedCheckExitsNonZero drives the exit path with a workload whose
// correctness check fails.
func TestFailedCheckExitsNonZero(t *testing.T) {
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append(slices.Clone(saved), workload{"broken", func(o options, out io.Writer) (*outcome, error) {
		oc := &outcome{vals: map[string]float64{"setup_s": 1, "heap_peak_mb": 1, "ops_per_s": 1}}
		oc.attempted = 3
		oc.check(out, "deliberate mismatch", os.ErrInvalid)
		return oc, nil
	}})
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "broken"}, &out, &errb); code == 0 {
		t.Fatalf("exit 0 with a failed check:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "CHECK FAILED") {
		t.Fatalf("failure not reported:\n%s", out.String())
	}
	if code := run([]string{"--workload", "no-such"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the printed
// catalogs in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []Metric `json:"end_to_end"`
		PerLayer  []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range spec.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !slices.Equal(names, jsonNames) {
		t.Errorf("workloads differ: json %v, code %v", jsonNames, names)
	}
}
