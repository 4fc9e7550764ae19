package ensemble_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"foam/internal/ensemble"
	"foam/internal/scenario"
)

// newTestServer boots a handler over a small scheduler.
func newTestServer(t *testing.T, workers int) (*httptest.Server, *ensemble.Scheduler) {
	t.Helper()
	s := ensemble.New(ensemble.Config{Workers: workers, MaxMembers: 32})
	srv := httptest.NewServer(ensemble.NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, s
}

func doJSON(t *testing.T, srv *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: bad response body %q: %v", method, path, blob, err)
		}
	}
	return resp.StatusCode
}

func createMember(t *testing.T, srv *httptest.Server) ensemble.Info {
	t.Helper()
	var info ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members", `{"preset":"reduced"}`, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return info
}

// TestHandlerTable pins the API's error contract: malformed bodies, bad
// configs, unknown and deleted members, and invalid advance counts must map
// to the right status codes — and none of them may panic the server.
func TestHandlerTable(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	live := createMember(t, srv)
	deleted := createMember(t, srv)
	if code := doJSON(t, srv, "DELETE", "/v1/members/"+deleted.ID, "", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"create malformed json", "POST", "/v1/members", `{"preset": "red`, http.StatusBadRequest},
		{"create wrong type", "POST", "/v1/members", `{"preset": 7}`, http.StatusBadRequest},
		{"create unknown preset", "POST", "/v1/members", `{"preset":"huge"}`, http.StatusBadRequest},
		{"create invalid config", "POST", "/v1/members", `{"config":{"OceanEvery":-1}}`, http.StatusBadRequest},
		{"create bad checkpoint", "POST", "/v1/members", `{"checkpoint":"AAAA"}`, http.StatusBadRequest},
		{"info unknown", "GET", "/v1/members/m9999", "", http.StatusNotFound},
		{"advance unknown", "POST", "/v1/members/m9999/advance", `{"steps":1}`, http.StatusNotFound},
		{"advance deleted", "POST", "/v1/members/" + deleted.ID + "/advance", `{"steps":1}`, http.StatusNotFound},
		{"advance malformed json", "POST", "/v1/members/" + live.ID + "/advance", `steps=3`, http.StatusBadRequest},
		{"advance no count", "POST", "/v1/members/" + live.ID + "/advance", `{}`, http.StatusBadRequest},
		{"advance both counts", "POST", "/v1/members/" + live.ID + "/advance", `{"steps":1,"intervals":1}`, http.StatusBadRequest},
		{"advance negative", "POST", "/v1/members/" + live.ID + "/advance", `{"steps":-4}`, http.StatusBadRequest},
		{"advance overflowing intervals", "POST", "/v1/members/" + live.ID + "/advance", `{"intervals":4611686018427387905}`, http.StatusBadRequest},
		{"diag unknown", "GET", "/v1/members/m9999/diag", "", http.StatusNotFound},
		{"sst unknown", "GET", "/v1/members/m9999/sst", "", http.StatusNotFound},
		{"snapshot unknown", "POST", "/v1/members/m9999/snapshot", "", http.StatusNotFound},
		{"fork unknown", "POST", "/v1/members/m9999/fork", "", http.StatusNotFound},
		{"delete unknown", "DELETE", "/v1/members/m9999", "", http.StatusNotFound},
		{"delete deleted", "DELETE", "/v1/members/" + deleted.ID, "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := doJSON(t, srv, tc.method, tc.path, tc.body, nil); code != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.want)
			}
		})
	}

	// The live member is untouched by all of the above.
	var info ensemble.Info
	if code := doJSON(t, srv, "GET", "/v1/members/"+live.ID, "", &info); code != http.StatusOK || info.Step != 0 {
		t.Fatalf("live member: status %d info %+v", code, info)
	}
}

// letterA is an endless reader of 'A' bytes (valid base64 padding-free
// payload), for building large bodies without holding them in memory.
type letterA struct{}

func (letterA) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'A'
	}
	return len(p), nil
}

// TestHandlerBodyLimit pins the request-size bound: a create body one byte
// over MaxBodyBytes is refused with 413, and the daemon keeps serving.
func TestHandlerBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	const prefix, suffix = `{"checkpoint":"`, `"}`
	size := int64(ensemble.MaxBodyBytes + 1)
	body := io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(letterA{}, size-int64(len(prefix)+len(suffix))),
		strings.NewReader(suffix))
	req, err := http.NewRequest("POST", srv.URL+"/v1/members", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = size
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if code := doJSON(t, srv, "GET", "/v1/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("healthz after oversized body: status %d", code)
	}
}

// TestHandlerConcurrentAdvance pins the 409 contract: while one advance on
// a member is in flight, a second advance on the same member fails with
// StatusConflict and the first still completes.
func TestHandlerConcurrentAdvance(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	m := createMember(t, srv)
	steps := 6 * m.CoupleEvery
	if testing.Short() {
		steps = 3 * m.CoupleEvery
	}

	// One attempt: fire a long advance from a goroutine, poll the member's
	// info (a read that does not hold the member) until it reports the
	// advance queued or busy, then send a second advance. The second one
	// can only see 200 if the long advance finished in between — hundreds
	// of milliseconds against one poll — and then the attempt is retried.
	attempt := func() bool {
		first := make(chan int, 1)
		go func() {
			body, _ := json.Marshal(ensemble.AdvanceRequest{Steps: steps})
			resp, err := srv.Client().Post(srv.URL+"/v1/members/"+m.ID+"/advance", "application/json", bytes.NewReader(body))
			if err != nil {
				first <- 0
				return
			}
			resp.Body.Close()
			first <- resp.StatusCode
		}()
		for {
			var info ensemble.Info
			if code := doJSON(t, srv, "GET", "/v1/members/"+m.ID, "", &info); code != http.StatusOK {
				t.Fatalf("info: status %d", code)
			}
			if info.State != "idle" {
				break
			}
			select {
			case code := <-first:
				if code != http.StatusOK {
					t.Fatalf("long advance: status %d", code)
				}
				return false // finished before a poll saw it in flight
			default:
			}
			time.Sleep(time.Millisecond)
		}
		code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"steps":1}`, nil)
		if c := <-first; c != http.StatusOK {
			t.Fatalf("long advance: status %d", c)
		}
		switch code {
		case http.StatusConflict:
			return true
		case http.StatusOK:
			return false // the long advance finished before this one arrived
		default:
			t.Fatalf("concurrent advance: unexpected status %d", code)
			return false
		}
	}

	sawConflict := false
	for try := 0; try < 10 && !sawConflict; try++ {
		sawConflict = attempt()
	}
	if !sawConflict {
		t.Fatal("never observed a 409 for a concurrent advance on the same member")
	}
	// Afterwards the member advances normally again.
	var info ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"steps":1}`, &info); code != http.StatusOK || info.State != "idle" {
		t.Fatalf("post-conflict advance: status %d state %q", code, info.State)
	}
}

// TestHandlerScenarios drives the scenario surface of the API: the registry
// listing, creation by name (labelled in member info and stats), label
// inheritance through fork, resume onto the same scenario, and the 404/400
// contract for unknown names and bad checkpoints.
func TestHandlerScenarios(t *testing.T) {
	srv, _ := newTestServer(t, 2)

	var rows []scenario.Row
	if code := doJSON(t, srv, "GET", "/v1/scenarios", "", &rows); code != http.StatusOK {
		t.Fatalf("scenarios: status %d", code)
	}
	if len(rows) < 8 {
		t.Fatalf("scenario registry lists %d rows, want >= 8", len(rows))
	}
	found := false
	for _, r := range rows {
		if r.Name == "r5-quick" {
			found = true
		}
	}
	if !found {
		t.Fatal("registry listing is missing r5-quick")
	}

	if code := doJSON(t, srv, "POST", "/v1/scenarios/nonesuch/members", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404", code)
	}
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", `{"checkpoint":"AAAA"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad checkpoint: status %d, want 400", code)
	}

	var m ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", "", &m); code != http.StatusCreated {
		t.Fatalf("create by scenario: status %d", code)
	}
	if m.Scenario != "r5-quick" {
		t.Fatalf("member scenario %q, want r5-quick", m.Scenario)
	}
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"intervals":1}`, &m); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}

	// A fork inherits the parent's scenario label.
	var fork ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/fork", "", &fork); code != http.StatusCreated {
		t.Fatalf("fork: status %d", code)
	}
	if fork.Scenario != "r5-quick" || fork.Parent != m.ID {
		t.Fatalf("fork info: %+v", fork)
	}

	// Resume a snapshot onto the same scenario name.
	var snap ensemble.SnapshotResponse
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/snapshot", "", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	body, err := json.Marshal(ensemble.CreateRequest{Checkpoint: snap.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	var resumed ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", string(body), &resumed); code != http.StatusCreated {
		t.Fatalf("resume by scenario: status %d", code)
	}
	if resumed.Scenario != "r5-quick" || resumed.Step != m.Step {
		t.Fatalf("resumed info: %+v (want step %d)", resumed, m.Step)
	}

	// A raw-config member carries no label; stats count only labelled ones.
	createMember(t, srv)
	var st ensemble.Stats
	if code := doJSON(t, srv, "GET", "/v1/stats", "", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Members != 4 || st.Scenarios["r5-quick"] != 3 {
		t.Fatalf("stats: %+v, want 4 members with 3 x r5-quick", st)
	}
	if st.TableSets != 1 {
		t.Fatalf("stats: %d table sets, want 1 (r5-quick shares the reduced tables)", st.TableSets)
	}
}

// TestHandlerResumeOtherScenario: a paper-foam snapshot POSTed to the
// r5-quick scenario does not fit its grids, so the resume is refused with
// 400 instead of panicking or installing truncated state.
func TestHandlerResumeOtherScenario(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	var m ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/scenarios/paper-foam/members", "", &m); code != http.StatusCreated {
		t.Fatalf("create paper-foam: status %d", code)
	}
	var snap ensemble.SnapshotResponse
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/snapshot", "", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	body, err := json.Marshal(ensemble.CreateRequest{Checkpoint: snap.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", string(body), nil); code != http.StatusBadRequest {
		t.Fatalf("paper-foam snapshot onto r5-quick: status %d, want 400", code)
	}
}

// TestHandlerLifecycle drives the full API surface: create, advance by
// intervals, diagnostics, SST, snapshot, resume (snapshot POSTed back
// verbatim), fork — and checks the resumed member matches the original
// bit-for-bit after identical stepping.
func TestHandlerLifecycle(t *testing.T) {
	srv, s := newTestServer(t, 2)
	m := createMember(t, srv)

	var adv ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"intervals":1}`, &adv); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}
	if adv.Step != m.CoupleEvery || adv.LastWallSeconds <= 0 || adv.StepsPerSecond <= 0 {
		t.Fatalf("advance info: %+v", adv)
	}

	var d ensemble.Diag
	if code := doJSON(t, srv, "GET", "/v1/members/"+m.ID+"/diag", "", &d); code != http.StatusOK {
		t.Fatalf("diag: status %d", code)
	}
	if d.Info.Step != adv.Step || d.Model.MeanSSTModel == 0 {
		t.Fatalf("diag: %+v", d)
	}

	var sst ensemble.SSTField
	if code := doJSON(t, srv, "GET", "/v1/members/"+m.ID+"/sst", "", &sst); code != http.StatusOK {
		t.Fatalf("sst: status %d", code)
	}
	if len(sst.SST) != sst.NLat*sst.NLon || sst.NLat == 0 {
		t.Fatalf("sst: %d values for %dx%d", len(sst.SST), sst.NLat, sst.NLon)
	}

	// Snapshot, then resume by POSTing the snapshot body back verbatim.
	req, err := http.NewRequest("POST", srv.URL+"/v1/members/"+m.ID+"/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	snapBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}
	var snap ensemble.SnapshotResponse
	if err := json.Unmarshal(snapBody, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Checkpoint) == 0 {
		t.Fatal("snapshot carries no checkpoint")
	}
	var resumed ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members", string(snapBody), &resumed); code != http.StatusCreated {
		t.Fatalf("resume: status %d", code)
	}
	if resumed.Step != adv.Step {
		t.Fatalf("resumed member starts at step %d, want %d", resumed.Step, adv.Step)
	}

	// Fork the original; original, resumed and fork now step identically.
	var fork ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/fork", "", &fork); code != http.StatusCreated {
		t.Fatalf("fork: status %d", code)
	}
	if fork.Parent != m.ID || fork.Step != adv.Step {
		t.Fatalf("fork info: %+v", fork)
	}

	ids := []string{m.ID, resumed.ID, fork.ID}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if code := doJSON(t, srv, "POST", "/v1/members/"+id+"/advance", `{"intervals":2}`, nil); code != http.StatusOK {
				t.Errorf("advance %s: status %d", id, code)
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ref := checkpointBytes(t, s, m.ID)
	for _, id := range ids[1:] {
		if !bytes.Equal(ref, checkpointBytes(t, s, id)) {
			t.Errorf("member %s diverged from %s after identical stepping", id, m.ID)
		}
	}

	var list []ensemble.Info
	if code := doJSON(t, srv, "GET", "/v1/members", "", &list); code != http.StatusOK || len(list) != 3 {
		t.Fatalf("list: status %d, %d members", code, len(list))
	}
	var st ensemble.Stats
	if code := doJSON(t, srv, "GET", "/v1/stats", "", &st); code != http.StatusOK || st.Members != 3 || st.TableSets != 1 {
		t.Fatalf("stats: status %d %+v", code, st)
	}
}
