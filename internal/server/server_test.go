package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"protemp"
	"protemp/api"
	"protemp/internal/core"
	"protemp/internal/sense"
	"protemp/internal/sim"
)

// rawJSON marshals a value into a json.RawMessage for the api types'
// passthrough fields.
func rawJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fastEngine builds a cheap engine: 1 ms steps, 100 ms windows, a
// 2x3 Phase-1 grid (6 solves).
func fastEngine(t *testing.T, extra ...protemp.Option) *protemp.Engine {
	t.Helper()
	opts := append([]protemp.Option{
		protemp.WithWindow(1e-3, 100),
		protemp.WithTableGrid([]float64{47, 100}, []float64{250e6, 500e6, 750e6}),
	}, extra...)
	e, err := protemp.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTestServer(t *testing.T, engine *protemp.Engine) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Engine: engine, SessionTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func createSession(t *testing.T, baseURL string) string {
	t.Helper()
	var info api.SessionInfo
	resp := postJSON(t, baseURL+"/v1/sessions", map[string]any{}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	if info.ID == "" || info.NumCores != 8 {
		t.Fatalf("session info %+v", info)
	}
	return info.ID
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, fastEngine(t))
	var a api.Assignment
	resp := postJSON(t, ts.URL+"/v1/optimize", api.OptimizeRequest{TStartC: 47, FTargetHz: 5e8}, &a)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !a.Feasible || len(a.FreqsHz) != 8 {
		t.Fatalf("assignment %+v", a)
	}
	if a.AvgFreqHz < 5e8*(1-1e-6) {
		t.Fatalf("avg %g below target", a.AvgFreqHz)
	}

	// Unknown variant is a 400 with a JSON error body.
	resp = postJSON(t, ts.URL+"/v1/optimize", api.OptimizeRequest{TStartC: 47, FTargetHz: 5e8, Variant: "bogus"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus variant: status %d", resp.StatusCode)
	}
}

func TestSessionStepAndLifecycle(t *testing.T) {
	engine := fastEngine(t)
	_, ts := newTestServer(t, engine)
	id := createSession(t, ts.URL)

	var step api.StepResponse
	resp := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step",
		api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}, &step)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: status %d", resp.StatusCode)
	}
	if len(step.FreqsHz) != 8 || step.Steps != 1 {
		t.Fatalf("step %+v", step)
	}

	var info api.SessionInfo
	getResp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(getResp.Body).Decode(&info)
	getResp.Body.Close()
	if info.Steps != 1 {
		t.Fatalf("info %+v", info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("step after delete: status %d", resp.StatusCode)
	}
}

// TestSessionDMPCMode creates a distributed-MPC session via the mode
// field, steps it, and checks the consensus accounting in the info
// response.
func TestSessionDMPCMode(t *testing.T) {
	engine := fastEngine(t, protemp.WithClusters(2))
	_, ts := newTestServer(t, engine)

	var info api.SessionInfo
	resp := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"mode": "dmpc"}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create dmpc session: status %d", resp.StatusCode)
	}
	if info.Mode != "dmpc" || info.Degraded || info.Clusters != 2 {
		t.Fatalf("session info %+v", info)
	}
	// No Phase-1 table behind a dmpc session.
	if gen := engine.CacheStats().Generations; gen != 0 {
		t.Fatalf("dmpc session triggered %d Phase-1 generations", gen)
	}

	var step api.StepResponse
	resp = postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/step",
		api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}, &step)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: status %d", resp.StatusCode)
	}
	if len(step.FreqsHz) != 8 {
		t.Fatalf("step %+v", step)
	}

	getResp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(getResp.Body).Decode(&info)
	getResp.Body.Close()
	if info.Steps != 1 || info.Solves < 2 || info.OuterIters == 0 {
		t.Fatalf("info after step %+v", info)
	}

	// An unknown mode is a client error.
	resp = postJSON(t, ts.URL+"/v1/sessions", map[string]any{"mode": "bogus"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus mode: status %d", resp.StatusCode)
	}
}

// streamWindows posts a stream request and returns the parsed window
// lines plus the summary line.
func streamWindowLines(t *testing.T, baseURL, id string, req api.StreamRequest) ([]api.StreamWindow, api.StreamSummary) {
	t.Helper()
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(req)
	resp, err := http.Post(baseURL+"/v1/sessions/"+id+"/stream", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var (
		windows []api.StreamWindow
		summary api.StreamSummary
		sawSum  bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary"`)) {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
			sawSum = true
			continue
		}
		if bytes.Contains(line, []byte(`"error"`)) {
			t.Fatalf("stream error line: %s", line)
		}
		var w api.StreamWindow
		if err := json.Unmarshal(line, &w); err != nil {
			t.Fatalf("window line %q: %v", line, err)
		}
		windows = append(windows, w)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSum {
		t.Fatal("stream ended without a summary line")
	}
	return windows, summary
}

// TestServerEndToEndWarmRestart is the acceptance scenario: a server
// on a loopback listener serves a session streaming NDJSON control
// windows; a second server started against the same table-store
// directory serves its first session from the store with no Phase-1
// re-sweep.
func TestServerEndToEndWarmRestart(t *testing.T) {
	storeDir := t.TempDir()

	// --- first server: cold start, generates and persists the table ---
	engine1 := fastEngine(t, protemp.WithTableStoreDir(storeDir))
	_, ts1 := newTestServer(t, engine1)
	id := createSession(t, ts1.URL)

	windows, summary := streamWindowLines(t, ts1.URL, id, api.StreamRequest{
		Windows:     3,
		Seed:        7,
		DurationS:   2,
		Utilization: 0.5,
	})
	if len(windows) < 3 {
		t.Fatalf("streamed %d windows, want >= 3", len(windows))
	}
	for i, w := range windows {
		if w.Window != i+1 || len(w.FreqsHz) != 8 {
			t.Fatalf("window line %d: %+v", i, w)
		}
	}
	if summary.Summary.Windows != len(windows) || summary.Summary.SimTimeS <= 0 {
		t.Fatalf("summary %+v", summary)
	}

	st1 := engine1.CacheStats()
	if st1.Generations != 1 || st1.StoreWrites != 1 {
		t.Fatalf("first server stats %+v: want 1 generation written through", st1)
	}

	// --- restart: fresh engine + server on the same store directory ---
	engine2 := fastEngine(t, protemp.WithTableStoreDir(storeDir))
	_, ts2 := newTestServer(t, engine2)
	id2 := createSession(t, ts2.URL)

	windows2, _ := streamWindowLines(t, ts2.URL, id2, api.StreamRequest{
		Windows: 3, Seed: 8, DurationS: 2, Utilization: 0.5,
	})
	if len(windows2) < 3 {
		t.Fatalf("second server streamed %d windows", len(windows2))
	}

	st2 := engine2.CacheStats()
	if st2.Generations != 0 {
		t.Fatalf("second server re-swept Phase 1: stats %+v", st2)
	}
	if st2.StoreHits != 1 {
		t.Fatalf("second server store hits = %d, want 1 (stats %+v)", st2.StoreHits, st2)
	}

	// The metrics endpoint surfaces the store hit.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metricsOut map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&metricsOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metricsOut["table_store_hits"] != 1 || metricsOut["table_cache_generations"] != 0 {
		t.Fatalf("metrics %v", metricsOut)
	}
	if metricsOut["sessions_created"] != 1 || metricsOut["stream_windows"] < 3 {
		t.Fatalf("metrics %v", metricsOut)
	}
}

func TestTablesEndpointCoalescesAndServesKey(t *testing.T) {
	engine := fastEngine(t)
	_, ts := newTestServer(t, engine)

	var resp1 api.TablesResponse
	r := postJSON(t, ts.URL+"/v1/tables", api.TablesRequest{}, &resp1)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("tables: status %d", r.StatusCode)
	}
	if resp1.Key == "" || len(resp1.Table) == 0 {
		t.Fatalf("tables response missing key/table")
	}
	var table core.Table
	if err := json.Unmarshal(resp1.Table, &table); err != nil {
		t.Fatalf("table payload: %v", err)
	}
	if got := len(table.TStarts); got != 2 {
		t.Fatalf("table rows %d", got)
	}

	var resp2 api.TablesResponse
	postJSON(t, ts.URL+"/v1/tables", api.TablesRequest{KeyOnly: true}, &resp2)
	if resp2.Key != resp1.Key || resp2.Table != nil {
		t.Fatalf("key_only response %+v", resp2)
	}
	if st := engine.CacheStats(); st.Generations != 1 {
		t.Fatalf("stats %+v: want a single shared generation", st)
	}
}

func TestStreamWithExplicitTasks(t *testing.T) {
	engine := fastEngine(t)
	_, ts := newTestServer(t, engine)
	id := createSession(t, ts.URL)
	req := api.StreamRequest{
		Windows: 4,
		Tasks: []api.StreamTask{
			{ArrivalS: 0, WorkS: 0.05},
			{ArrivalS: 0, WorkS: 0.05},
			{ArrivalS: 0.1, WorkS: 0.02},
		},
	}
	windows, summary := streamWindowLines(t, ts.URL, id, req)
	if len(windows) == 0 {
		t.Fatal("no windows streamed")
	}
	if summary.Summary.Completed+summary.Summary.Unfinished != 3 {
		t.Fatalf("summary %+v: tasks don't add up", summary)
	}
}

func TestServerRejectsWorkWhileDraining(t *testing.T) {
	engine := fastEngine(t)
	srv, ts := newTestServer(t, engine)
	id := createSession(t, ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp := postJSON(t, ts.URL+"/v1/sessions", map[string]any{}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", api.StepRequest{MaxCoreTempC: 50, RequiredFreqHz: 2.5e8}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step while draining: status %d", resp.StatusCode)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions survived drain", srv.SessionCount())
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, fastEngine(t))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz %v", out)
	}
}

func TestBadRequestBodies(t *testing.T) {
	_, ts := newTestServer(t, fastEngine(t))
	for _, tc := range []struct {
		url  string
		body string
	}{
		{"/v1/optimize", `{"tstart_c": "not a number"}`},
		{"/v1/optimize", `{"unknown_field": 1}`},
		{"/v1/tables", `{"tstarts_c": [100, 47]}`}, // descending grid
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Message == "" {
			t.Fatalf("%s %s: status %d error %q", tc.url, tc.body, resp.StatusCode, e.Message)
		}
	}
}

// TestSessionCreateRejectsOnlineField: the retired `online` boolean is an
// unknown field now, alone or next to an explicit mode, and creates nothing.
func TestSessionCreateRejectsOnlineField(t *testing.T) {
	_, ts := newTestServer(t, fastEngine(t))
	for _, body := range []string{
		`{"online": true}`,
		`{"online": false}`,
		`{"online": true, "mode": "table"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Message == "" {
			t.Fatalf("%s: status %d error %q", body, resp.StatusCode, e.Message)
		}
	}
	var m map[string]uint64
	getJSON(t, ts.URL+"/metrics", &m)
	if m["sessions_active"] != 0 {
		t.Fatalf("sessions_active = %d after rejected creates", m["sessions_active"])
	}
	if _, ok := m["deprecated_online_requests"]; ok {
		t.Fatal("retired deprecated_online_requests counter still exported")
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	engine := fastEngine(t)
	_, ts := newTestServer(t, engine)
	postJSON(t, ts.URL+"/v1/optimize", api.OptimizeRequest{TStartC: 47, FTargetHz: 2.5e8}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"http_requests", "optimize_requests", "table_cache_hits", "table_cache_misses", "table_store_hits", "sessions_active"} {
		if _, ok := out[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, out)
		}
	}
	if out["optimize_requests"] != 1 {
		t.Fatalf("optimize_requests = %d", out["optimize_requests"])
	}
	_ = fmt.Sprintf("%v", out)
}

// TestStreamWithSensing drives a sensed stream end to end: the session
// observes degraded readings, blind windows are flagged on their
// NDJSON lines, the closing summary carries the sense counters, and
// the degraded-window alarm counter ticks on /metrics.
func TestStreamWithSensing(t *testing.T) {
	engine := fastEngine(t)
	srv, ts := newTestServer(t, engine)
	id := createSession(t, ts.URL)
	req := api.StreamRequest{
		Windows: 12,
		Seed:    7,
		Sensing: rawJSON(t, sim.Sensing{
			Sensors:   []sense.Config{{NoiseSigma: 0.5, DropoutProb: 1}},
			Seed:      7,
			Estimator: "kalman",
		}),
	}
	windows, summary := streamWindowLines(t, ts.URL, id, req)
	if len(windows) == 0 {
		t.Fatal("no windows streamed")
	}
	degraded := 0
	for _, w := range windows {
		if w.SensingDegraded {
			degraded++
		}
	}
	if degraded != len(windows) {
		t.Fatalf("%d/%d windows flagged degraded under certain dropout", degraded, len(windows))
	}
	if len(summary.Summary.Sense) == 0 {
		t.Fatal("sensed stream summary carries no sense block")
	}
	var sn sim.SenseSummary
	if err := json.Unmarshal(summary.Summary.Sense, &sn); err != nil {
		t.Fatalf("sense block: %v", err)
	}
	if sn.Estimator != "kalman" || sn.DegradedWindows == 0 || sn.Dropouts == 0 {
		t.Fatalf("sense summary %+v", sn)
	}
	if got := srv.reg.Snapshot()["stream_degraded_windows"]; got == 0 {
		t.Fatal("stream_degraded_windows never incremented")
	}

	// A malformed sensing config is a 400, not a stream.
	bad := api.StreamRequest{Windows: 2, Sensing: rawJSON(t, sim.Sensing{Estimator: "bogus"})}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(bad)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/stream", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus sensing: status %d", resp.StatusCode)
	}
}
