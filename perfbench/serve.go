package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"foam/internal/core"
	"foam/internal/ensemble"
	"foam/internal/scenario"
)

// memberSpecs derives n perturbed-physics members from the seed: the
// registry template with its two deltas redrawn per member within +-20% of
// the template's scales. Deltas are pure multipliers, so every member keeps
// the template's table key and the ensemble shares one table set.
func memberSpecs(seed uint64, n int) []scenario.Spec {
	base, ok := scenario.Lookup("perturbed-physics")
	if !ok {
		panic("perturbed-physics scenario missing from the registry")
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]scenario.Spec, n)
	for i := range out {
		sp := base
		sp.Deltas = make([]scenario.Delta, len(base.Deltas))
		for k, d := range base.Deltas {
			sp.Deltas[k] = scenario.Delta{Param: d.Param, Scale: d.Scale * (0.8 + 0.4*rng.Float64())}
		}
		out[i] = sp
	}
	return out
}

// picker yields the seeded sequence of members one closed-loop client
// works on. Client c owns the members i with i%clients == c, so no two
// clients ever touch one member and no request can meet ErrBusy.
type picker struct {
	rng   *rand.Rand
	owned []int
}

func newPicker(seed uint64, client, clients, members int) *picker {
	p := &picker{rng: rand.New(rand.NewPCG(seed, uint64(100+client)))}
	for i := client; i < members; i += clients {
		p.owned = append(p.owned, i)
	}
	return p
}

func (p *picker) next() int { return p.owned[p.rng.IntN(len(p.owned))] }

// Headers carrying a client span to the server-side span, so the handler
// span nests under the request that caused it.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// spanHandler records the server-side ServeHTTP time of every request as a
// "serve.handler" span when a tracer is installed.
type spanHandler struct {
	h  http.Handler
	tr atomic.Pointer[Tracer]
}

func (sh *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := sh.tr.Load()
	if tr == nil {
		sh.h.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
	if err != nil {
		parent = -1
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64) // 0 when absent
	s := tr.Begin("serve.handler", parent, req)
	sh.h.ServeHTTP(w, r)
	tr.End(s)
}

// daemon is the in-process ensemble server: a scheduler with nproc
// stepping workers behind ensemble.NewHandler on a loopback httptest
// server, and a client whose connection pool holds at most nproc
// connections.
type daemon struct {
	s    *ensemble.Scheduler
	sh   *spanHandler
	srv  *httptest.Server
	cl   *http.Client
	ids  []string
	cfgs []core.Config
}

// startDaemon compiles the member specs, starts the scheduler and server,
// and creates one member per spec. The first create builds the shared
// table set; its span is named apart from the adopting creates.
func startDaemon(specs []scenario.Spec, nproc int, tr *Tracer) (*daemon, error) {
	d := &daemon{s: ensemble.New(ensemble.Config{Workers: nproc})}
	d.sh = &spanHandler{h: ensemble.NewHandler(d.s)}
	d.srv = httptest.NewServer(d.sh)
	d.cl = &http.Client{Transport: &http.Transport{
		MaxIdleConns: nproc, MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc,
	}}
	for i, sp := range specs {
		s := tr.Begin("scenario.build", -1, int64(i))
		cfg, err := scenario.Build(sp)
		tr.End(s)
		if err != nil {
			d.close()
			return nil, err
		}
		name := "ensemble.create"
		if i == 0 {
			name = "ensemble.create_tables"
		}
		s = tr.Begin(name, -1, int64(i))
		info, err := d.s.Create(cfg, nil)
		tr.End(s)
		if err != nil {
			d.close()
			return nil, err
		}
		d.ids = append(d.ids, info.ID)
		d.cfgs = append(d.cfgs, cfg)
	}
	return d, nil
}

func (d *daemon) close() {
	d.cl.CloseIdleConnections()
	d.srv.Close()
	d.s.Close()
}

// spinUp advances every member k intervals, nproc at a time.
func (d *daemon) spinUp(k, nproc int) error {
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(d.ids); i += nproc {
				if _, err := d.s.AdvanceIntervals(d.ids[i], k); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call makes one request under a client span named name and returns the
// client-observed round trip in ms and the response body. A status other
// than want is an error.
func (d *daemon) call(tr *Tracer, req int64, name, method, path string, body []byte, want int) (float64, []byte, error) {
	s := tr.Begin(name, -1, req)
	defer tr.End(s)
	hr, err := http.NewRequest(method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		hr.Header.Set(hdrSpan, strconv.Itoa(s))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	t0 := time.Now()
	resp, err := d.cl.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := since(t0)
	if err != nil {
		return ms, nil, err
	}
	if resp.StatusCode != want {
		return ms, out, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return ms, out, nil
}

// loopStats collects one closed-loop phase. Each client fills its own and
// closedLoop merges them once every client has stopped.
type loopStats struct {
	opMs      []float64
	extraMs   map[string][]float64
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func (ls *loopStats) merge(o *loopStats) {
	ls.opMs = append(ls.opMs, o.opMs...)
	for k, v := range o.extraMs {
		ls.extraMs[k] = append(ls.extraMs[k], v...)
	}
	ls.attempted += o.attempted
	ls.failed += o.failed
	if ls.firstErr == nil {
		ls.firstErr = o.firstErr
	}
}

// closedLoop runs nproc clients until the deadline; each calls op with
// its picker's next member and a request id unique in the run.
func closedLoop(nproc int, seed uint64, members int, d time.Duration, heap *heapPeak,
	op func(client, member int, req int64) (float64, map[string]float64, error)) *loopStats {
	start := time.Now()
	deadline := start.Add(d)
	per := make([]*loopStats, nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		cs := &loopStats{extraMs: map[string][]float64{}}
		per[c] = cs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := newPicker(seed, c, nproc, members)
			for k := int64(1); time.Now().Before(deadline); k++ {
				ms, extra, err := op(c, p.next(), int64(c)<<32|k)
				heap.sample()
				cs.attempted++
				if err != nil {
					cs.failed++
					if cs.firstErr == nil {
						cs.firstErr = err
					}
					continue
				}
				cs.opMs = append(cs.opMs, ms)
				for k, v := range extra {
					cs.extraMs[k] = append(cs.extraMs[k], v)
				}
			}
		}(c)
	}
	wg.Wait()
	ls := &loopStats{extraMs: map[string][]float64{}, elapsed: time.Since(start)}
	for _, cs := range per {
		ls.merge(cs)
	}
	return ls
}

// serveOp is one serve-r5 operation: advance the member one coupling
// interval over HTTP, then read its diagnostics, checking the step count
// the server reports against the count this client expects.
func serveOp(d *daemon, tr *Tracer, steps []int) func(c, i int, req int64) (float64, map[string]float64, error) {
	return func(c, i int, req int64) (float64, map[string]float64, error) {
		id := d.ids[i]
		ms, body, err := d.call(tr, req, "client.advance", "POST", "/v1/members/"+id+"/advance", []byte(`{"intervals":1}`), http.StatusOK)
		if err != nil {
			return 0, nil, err
		}
		steps[i] += d.cfgs[i].OceanEvery
		var info ensemble.Info
		if err := json.Unmarshal(body, &info); err != nil {
			return 0, nil, err
		}
		if info.Step != steps[i] {
			return 0, nil, fmt.Errorf("member %s at step %d after advance, want %d", id, info.Step, steps[i])
		}
		diagMs, body, err := d.call(tr, req, "client.diag", "GET", "/v1/members/"+id+"/diag", nil, http.StatusOK)
		if err != nil {
			return 0, nil, err
		}
		var dg ensemble.Diag
		if err := json.Unmarshal(body, &dg); err != nil {
			return 0, nil, err
		}
		if dg.Info.Step != steps[i] || math.IsNaN(dg.Model.MeanSSTModel) {
			return 0, nil, fmt.Errorf("member %s diag: step %d (want %d), mean SST %v", id, dg.Info.Step, steps[i], dg.Model.MeanSSTModel)
		}
		return ms, map[string]float64{"diag": diagMs}, nil
	}
}

// lifecycleOp is one lifecycle-r5 operation: fork the member, snapshot the
// child, resume the snapshot as a new member, require the resumed SST to
// equal the child's bit for bit, then delete both.
func lifecycleOp(d *daemon, tr *Tracer, snapBytes *atomic.Int64) func(c, i int, req int64) (float64, map[string]float64, error) {
	return func(c, i int, req int64) (float64, map[string]float64, error) {
		t0 := time.Now()
		_, body, err := d.call(tr, req, "client.fork", "POST", "/v1/members/"+d.ids[i]+"/fork", nil, http.StatusCreated)
		if err != nil {
			return 0, nil, err
		}
		var child ensemble.Info
		if err := json.Unmarshal(body, &child); err != nil {
			return 0, nil, err
		}
		snapMs, snap, err := d.call(tr, req, "client.snapshot", "POST", "/v1/members/"+child.ID+"/snapshot", nil, http.StatusOK)
		if err != nil {
			return 0, nil, err
		}
		snapBytes.Store(int64(len(snap)))
		resumeMs, body, err := d.call(tr, req, "client.resume", "POST", "/v1/members", snap, http.StatusCreated)
		if err != nil {
			return 0, nil, err
		}
		var resumed ensemble.Info
		if err := json.Unmarshal(body, &resumed); err != nil {
			return 0, nil, err
		}
		var fields [2]ensemble.SSTField
		for k, id := range []string{child.ID, resumed.ID} {
			_, body, err := d.call(tr, req, "client.sst", "GET", "/v1/members/"+id+"/sst", nil, http.StatusOK)
			if err != nil {
				return 0, nil, err
			}
			if err := json.Unmarshal(body, &fields[k]); err != nil {
				return 0, nil, err
			}
		}
		if err := sameSST(fields[0], fields[1]); err != nil {
			return 0, nil, fmt.Errorf("resume of %s: %w", child.ID, err)
		}
		if resumed.Step != child.Step {
			return 0, nil, fmt.Errorf("resumed member at step %d, child at %d", resumed.Step, child.Step)
		}
		for _, id := range []string{child.ID, resumed.ID} {
			if _, _, err := d.call(tr, req, "client.delete", "DELETE", "/v1/members/"+id, nil, http.StatusOK); err != nil {
				return 0, nil, err
			}
		}
		return since(t0), map[string]float64{"snapshot": snapMs, "resume": resumeMs}, nil
	}
}

// sameSST requires two SST maps to have the same shape and bits.
func sameSST(a, b ensemble.SSTField) error {
	if a.NLat != b.NLat || a.NLon != b.NLon || len(a.SST) != len(b.SST) {
		return fmt.Errorf("SST shapes differ: %dx%d vs %dx%d", a.NLat, a.NLon, b.NLat, b.NLon)
	}
	for c := range a.SST {
		if math.Float64bits(a.SST[c]) != math.Float64bits(b.SST[c]) {
			return fmt.Errorf("SST[%d] differs: %v vs %v", c, a.SST[c], b.SST[c])
		}
	}
	return nil
}

// memberMatchesStandalone is the serve-r5 gate: the member's checkpoint
// must equal that of a standalone core.New model with the member's config,
// stepped the same number of steps.
func memberMatchesStandalone(d *daemon, i int) error {
	info, err := d.s.Info(d.ids[i])
	if err != nil {
		return err
	}
	ck, _, err := d.s.Snapshot(d.ids[i])
	if err != nil {
		return err
	}
	cfg := d.cfgs[i]
	cfg.Workers = 1
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	for n := 0; n < info.Step; n++ {
		m.Step()
	}
	return sameState(fmt.Sprintf("member %s vs standalone after %d steps", d.ids[i], info.Step), m.Checkpoint(), ck)
}

// ensembleProbe times the scheduler's own calls on member id with nothing
// else running: direct AdvanceIntervals and Fork calls, then one snapshot
// and one advance over HTTP so the handler and transport split exists on
// every workload. Each advance's wait is its duration minus the stepping
// time the scheduler itself measured for it (Info.LastWallSeconds): the
// queueing and hand-off cost of the scheduler. It returns the snapshot
// response size and the median wait in ms.
func ensembleProbe(d *daemon, id string, reps int, tr *Tracer) (snapBytes int, waitMs float64, err error) {
	if _, err := d.s.AdvanceIntervals(id, 1); err != nil { // warm-up
		return 0, 0, err
	}
	var waits []float64
	for r := 0; r < reps; r++ {
		s := tr.Begin("ensemble.advance", -1, int64(r))
		t0 := time.Now()
		info, err := d.s.AdvanceIntervals(id, 1)
		ms := since(t0)
		tr.End(s)
		if err != nil {
			return 0, 0, err
		}
		waits = append(waits, ms-1000*info.LastWallSeconds)
		s = tr.Begin("ensemble.fork", -1, int64(r))
		child, err := d.s.Fork(id)
		tr.End(s)
		if err != nil {
			return 0, 0, err
		}
		if err := d.s.Delete(child.ID); err != nil {
			return 0, 0, err
		}
	}
	d.sh.tr.Store(tr)
	defer d.sh.tr.Store(nil)
	_, snap, err := d.call(tr, -1, "client.snapshot", "POST", "/v1/members/"+id+"/snapshot", nil, http.StatusOK)
	if err != nil {
		return 0, 0, err
	}
	_, _, err = d.call(tr, -2, "client.advance", "POST", "/v1/members/"+id+"/advance", []byte(`{"intervals":1}`), http.StatusOK)
	return len(snap), median(waits), err
}

// handlerSplit returns the mean server-side handler time per request and
// the mean client round trip minus that handler time (the transport: HTTP,
// JSON framing and loopback), over every request the trace holds.
func handlerSplit(spans []Span) (handlerMs, transportMs float64) {
	var h, t []float64
	for _, s := range spans {
		if s.Name != "serve.handler" || s.End < 0 || s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		hd := float64(s.End-s.Start) / 1e6
		h = append(h, hd)
		t = append(t, float64(p.End-p.Start)/1e6-hd)
	}
	if len(h) == 0 {
		return 0, 0
	}
	return sum(h) / float64(len(h)), sum(t) / float64(len(t))
}
