package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"earmac"
	"earmac/internal/report"
)

// newTestServer starts a service with a deterministic single worker and
// returns it with its HTTP front.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	svc.Start()
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.cancelAll() // deliberately long test jobs should not outlive the test
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

const quickConfig = `{"algorithm":"count-hop","n":5,"rho_num":1,"rho_den":3,"rounds":20000}`

// TestRunCachedByteIdentical is the tentpole's core guarantee: the
// second submission of an identical config is served from the
// content-addressed cache, byte-identical, without re-simulating.
func TestRunCachedByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp1, body1 := post(t, ts.URL+"/v1/run", quickConfig)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get(headerCache); got != cacheMiss {
		t.Errorf("first run cache header = %q, want %q", got, cacheMiss)
	}
	// An equivalent spelling of the same experiment (explicit defaults)
	// must hit the same cache entry.
	equivalent := `{"algorithm":"count-hop","n":5,"k":3,"rho_num":1,"rho_den":3,"beta":1,"pattern":"uniform","seed":1,"rounds":20000}`
	resp2, body2 := post(t, ts.URL+"/v1/run", equivalent)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get(headerCache); got != cacheHit {
		t.Errorf("second run cache header = %q, want %q", got, cacheHit)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached response not byte-identical:\n%s\n%s", body1, body2)
	}
	var rep earmac.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatalf("response is not a Report: %v", err)
	}
	if rep.Algorithm != "count-hop" || rep.Rounds != 20000 {
		t.Errorf("unexpected report: %+v", rep)
	}
}

func TestSubmitStatusResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, raw := post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "sha256:") {
		t.Fatalf("job id %q is not a fingerprint", sub.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, raw = get(t, ts.URL+"/v1/jobs/"+sub.ID)
		var st statusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status: %v (%s)", err, raw)
		}
		if st.Status == StateDone {
			break
		}
		if st.Status == StateFailed || st.Status == StateCancelled {
			t.Fatalf("job ended %s: %s", st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, raw = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, raw)
	}
	// The async result and a sync re-run serve the same cached bytes.
	_, rerun := post(t, ts.URL+"/v1/run", quickConfig)
	if !bytes.Equal(raw, rerun) {
		t.Errorf("async result and cached sync run differ:\n%s\n%s", raw, rerun)
	}
	// A resubmission reports done+cached instantly.
	resp, raw = post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, raw)
	}
	var again submitResponse
	json.Unmarshal(raw, &again)
	if !again.Cached || again.Status != StateDone {
		t.Errorf("resubmit = %+v, want cached done", again)
	}
}

func TestStreamNDJSONProgress(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cfg := `{"algorithm":"orchestra","n":6,"rounds":400000}`
	resp, raw := post(t, ts.URL+"/v1/jobs", cfg)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	json.Unmarshal(raw, &sub)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	sawProgress := false
	var last map[string]any
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		if _, ok := line["report"]; ok {
			sawProgress = true
		}
		last = line
	}
	if !sawProgress {
		t.Error("stream delivered no progress snapshots")
	}
	if last == nil || last["status"] != StateDone {
		t.Errorf("final stream line = %v, want status done", last)
	}
}

func TestStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	post(t, ts.URL+"/v1/run", quickConfig) // ensure cached/terminal
	fp := earmacFingerprint(t, quickConfig)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+fp+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(raw), "event: end") {
		t.Errorf("SSE stream missing end event:\n%s", raw)
	}
}

func earmacFingerprint(t *testing.T, cfgJSON string) string {
	t.Helper()
	var cfg earmac.Config
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg.Fingerprint()
}

func TestRecordedTraceDownloadAndReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cfg := `{"algorithm":"orchestra","n":6,"pattern":"poisson-batch","seed":3,"rounds":30000}`
	resp, report := post(t, ts.URL+"/v1/run?record=1", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recorded run: %d %s", resp.StatusCode, report)
	}
	fp := earmacFingerprint(t, cfg)
	resp, traceRaw := get(t, ts.URL+"/v1/jobs/"+fp+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: %d %s", resp.StatusCode, traceRaw)
	}
	if want := fmt.Sprintf(`{"earmac_trace":%d,`, earmac.TraceVersion); !bytes.HasPrefix(traceRaw, []byte(want)) {
		t.Errorf("served trace does not start with %s: %.80s", want, traceRaw)
	}
	tr, err := earmac.ReadTrace(bytes.NewReader(traceRaw))
	if err != nil {
		t.Fatalf("downloaded trace does not decode: %v", err)
	}
	if tr.Footer == nil || tr.Footer.Counters == nil {
		t.Fatal("downloaded trace has no footer")
	}
	// Replaying the downloaded trace locally reproduces the served report.
	rcfg, err := earmac.ReplayConfig(tr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := earmac.Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical encoding of the local replay must equal the served
	// bytes exactly — the replayed trace reproduces the run bit-for-bit.
	if !bytes.Equal(canonicalReport(rep), report) {
		t.Errorf("replay of downloaded trace diverges:\nserved: %s\nreplay: %s", report, canonicalReport(rep))
	}
}

// TestTraceForCachedRunRequiresRecording: a plain cached run has no
// trace; a record=1 re-submission of the same fingerprint re-runs and
// attaches one.
func TestTraceForCachedRunRequiresRecording(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	_, first := post(t, ts.URL+"/v1/run", quickConfig)
	fp := earmacFingerprint(t, quickConfig)
	resp, _ := get(t, ts.URL+"/v1/jobs/"+fp+"/trace")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of unrecorded run: %d, want 409", resp.StatusCode)
	}
	// Re-submit with recording: the run repeats (cache does not satisfy
	// a record request without a trace) and the report stays identical.
	resp, second := post(t, ts.URL+"/v1/run?record=1", quickConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record re-run: %d", resp.StatusCode)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("record re-run changed the report:\n%s\n%s", first, second)
	}
	resp, _ = get(t, ts.URL+"/v1/jobs/"+fp+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trace after record re-run: %d, want 200", resp.StatusCode)
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	grid := `{"algorithms":["count-hop"],"ns":[4],"base":{"rounds":50}}`
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantSub          string
	}{
		{"unknown-algorithm", "", `{"algorithm":"nope"}`, http.StatusBadRequest, "unknown algorithm"},
		{"bad-rate", "", `{"rho_num":3,"rho_den":2}`, http.StatusBadRequest, "bad injection rate"},
		// A bucket that overflows int64 is rejected up front; it used to
		// panic in the job goroutine and take the process down.
		{"overflowing-bucket", "", `{"algorithm":"orchestra","n":8,"rho_num":1,"rho_den":10,"beta":1000000000000000000,"rounds":10}`,
			http.StatusBadRequest, "bad burstiness"},
		// A β above earmac.MaxBeta is rejected before round 0 injects
		// the burst. One past the bound keeps a regression cheap: it
		// would run a 2^20-packet burst and answer 200, not exhaust
		// the test's memory.
		{"burst-above-bound", "", fmt.Sprintf(`{"algorithm":"orchestra","n":8,"rho_num":1,"rho_den":3,"beta":%d,"rounds":10}`, earmac.MaxBeta+1),
			http.StatusBadRequest, "bad burstiness"},
		{"unknown-field", "", `{"algorithm":"orchestra","typo_field":1}`, http.StatusBadRequest, "unknown field"},
		{"malformed", "", `{`, http.StatusBadRequest, "decoding config"},
		{"body-too-large", "", `{"algorithm":"` + strings.Repeat("a", maxBodyBytes) + `"}`,
			http.StatusRequestEntityTooLarge, "request body too large"},
		// One value per body: a second value or trailing bytes used to
		// be ignored, so the first config ran and answered 200.
		{"second-value", "/v1/run", `{"algorithm":"count-hop","n":4,"rounds":50}{"n":99999999}`,
			http.StatusBadRequest, "unexpected data after the JSON value"},
		{"trailing-garbage", "/v1/run", `{"algorithm":"count-hop","n":4,"rounds":50} garbage`,
			http.StatusBadRequest, "unexpected data after the JSON value"},
		{"job-second-value", "/v1/jobs", `{"algorithm":"count-hop","n":4,"rounds":50}{"n":99999999}`,
			http.StatusBadRequest, "unexpected data after the JSON value"},
		{"job-trailing-garbage", "/v1/jobs", `{"algorithm":"count-hop","n":4,"rounds":50} garbage`,
			http.StatusBadRequest, "unexpected data after the JSON value"},
		{"suite-second-value", "/v1/suite", grid + `{"ns":[99999999]}`,
			http.StatusBadRequest, "unexpected data after the JSON value"},
		{"suite-trailing-garbage", "/v1/suite", grid + ` garbage`,
			http.StatusBadRequest, "unexpected data after the JSON value"},
		// Trailing white space is no data; trailing bytes past the cap
		// are still a body over it.
		{"trailing-space-too-large", "/v1/run", `{"algorithm":"count-hop","n":4,"rounds":50}` + strings.Repeat(" ", maxBodyBytes),
			http.StatusRequestEntityTooLarge, "request body too large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := c.path
			if path == "" {
				path = "/v1/run"
			}
			resp, raw := post(t, ts.URL+path, c.body)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d (%.200s)", resp.StatusCode, c.wantStatus, raw)
			}
			var eb errorBody
			json.Unmarshal(raw, &eb)
			if !strings.Contains(eb.Error, c.wantSub) {
				t.Errorf("error %q missing %q", eb.Error, c.wantSub)
			}
		})
	}
	// None of the rejected requests took the server down.
	if resp, raw := post(t, ts.URL+"/v1/run", quickConfig); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid run after rejections: %d %s", resp.StatusCode, raw)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	long := `{"algorithm":"orchestra","n":6,"rounds":4000000000}`
	resp, raw := post(t, ts.URL+"/v1/jobs", long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	json.Unmarshal(raw, &sub)
	waitState(t, ts, sub.ID, StateRunning)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, ts, sub.ID, StateCancelled)
	if !strings.Contains(st.Error, "cancelled") {
		t.Errorf("cancelled status error = %q", st.Error)
	}
	// The cancelled run is not cached.
	resp, _ = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: %d, want 409", resp.StatusCode)
	}
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, raw := get(t, ts.URL+"/v1/jobs/"+id)
		var st statusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status: %v (%s)", err, raw)
		}
		if st.Status == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrain: in-flight jobs finish, queued jobs are cancelled without
// running, and new submissions are refused with 503 + the typed
// conflict message.
func TestDrain(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	running := `{"algorithm":"count-hop","n":5,"rounds":3000000}`
	queuedCfg := `{"algorithm":"count-hop","n":6,"rounds":3000000}`
	resp, raw := post(t, ts.URL+"/v1/jobs", running)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit running: %d %s", resp.StatusCode, raw)
	}
	var runningSub submitResponse
	json.Unmarshal(raw, &runningSub)
	waitState(t, ts, runningSub.ID, StateRunning)
	resp, raw = post(t, ts.URL+"/v1/jobs", queuedCfg)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d %s", resp.StatusCode, raw)
	}
	var queuedSub submitResponse
	json.Unmarshal(raw, &queuedSub)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitState(t, ts, runningSub.ID, StateDone)
	resp, _ = get(t, ts.URL+"/v1/jobs/"+runningSub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight job result after drain: %d, want 200 (drain must let it finish)", resp.StatusCode)
	}
	qst := waitState(t, ts, queuedSub.ID, StateCancelled)
	if qst.Status != StateCancelled {
		t.Errorf("queued job after drain: %s, want cancelled", qst.Status)
	}
	resp, raw = post(t, ts.URL+"/v1/run", quickConfig)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	var eb errorBody
	json.Unmarshal(raw, &eb)
	if !strings.Contains(eb.Error, "conflicting options") || !strings.Contains(eb.Error, "draining") {
		t.Errorf("draining error = %q, want the typed conflict message", eb.Error)
	}
	_, raw = get(t, ts.URL+"/v1/healthz")
	if !strings.Contains(string(raw), `"status":"draining"`) {
		t.Errorf("healthz while draining: %s", raw)
	}
}

// TestSuiteSubmission: a Grid expands to one job per cell, and each
// served result is byte-identical to the same cell of an in-process
// Suite.Run.
func TestSuiteSubmission(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	grid := `{"algorithms":["count-hop","orchestra"],"ns":[4,5],"rhos":[{"num":1,"den":3},{"num":3,"den":4}],"base":{"rounds":8000}}`
	resp, raw := post(t, ts.URL+"/v1/suite", grid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("suite: %d %s", resp.StatusCode, raw)
	}
	var subs []submitResponse
	if err := json.Unmarshal(raw, &subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 8 {
		t.Fatalf("suite expanded to %d cells, want 8", len(subs))
	}
	var g earmac.Grid
	if err := json.Unmarshal([]byte(grid), &g); err != nil {
		t.Fatal(err)
	}
	rep, err := earmac.NewSuite(g).Run(context.Background(), earmac.SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		waitState(t, ts, sub.ID, StateDone)
		_, served := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
		if want := report.CanonicalJSON(rep.Results[i].Report); !bytes.Equal(served, want) {
			t.Errorf("cell %d: served report differs from in-process run:\n got: %s\nwant: %s", i, served, want)
		}
	}
	// Resubmitting the same grid is now fully cached.
	resp, raw = post(t, ts.URL+"/v1/suite", grid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("suite resubmit: %d %s", resp.StatusCode, raw)
	}
	json.Unmarshal(raw, &subs)
	for i, sub := range subs {
		if !sub.Cached {
			t.Errorf("cell %d not served from cache on resubmit", i)
		}
	}
}

func TestSuiteValidationFailsWholeBatch(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	var axis []string
	for v := 3; v <= 62; v++ {
		axis = append(axis, strconv.Itoa(v))
	}
	sixty := "[" + strings.Join(axis, ",") + "]"
	cases := []struct{ name, grid, wantSub string }{
		{"invalid-cell", `{"algorithms":["count-hop","no-such-alg"],"base":{"rounds":1000}}`, "unknown algorithm"},
		// 60^4 ≈ 13M cells from a body under 1 KB: enumerating them
		// would allocate gigabytes of Configs, so the grid is refused
		// by its size alone.
		{"too-many-cells", `{"ns":` + sixty + `,"ks":` + sixty + `,"betas":` + sixty + `,"seeds":` + sixty +
			`,"base":{"algorithm":"count-hop","rounds":10}}`, "above the limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+"/v1/suite", c.grid)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, raw)
			}
			var eb errorBody
			json.Unmarshal(raw, &eb)
			if !strings.Contains(eb.Error, c.wantSub) {
				t.Errorf("error %q missing %q", eb.Error, c.wantSub)
			}
			if queued, running := svc.counts(); queued+running != 0 {
				t.Errorf("rejected suite admitted %d jobs", queued+running)
			}
		})
	}
}

func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	long := func(n int) string {
		return fmt.Sprintf(`{"algorithm":"orchestra","n":%d,"rounds":4000000000}`, n)
	}
	// One running, one queued, then the queue is full. Admission and
	// dispatch race, so keep submitting until we see the 503.
	deadline := time.Now().Add(10 * time.Second)
	rejected := ""
	for n := 6; rejected == ""; n++ {
		resp, raw := post(t, ts.URL+"/v1/jobs", long(n))
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			rejected = long(n)
			var eb errorBody
			json.Unmarshal(raw, &eb)
			if !strings.Contains(eb.Error, "queue is full") {
				t.Errorf("503 body = %q", eb.Error)
			}
		default:
			t.Fatalf("submit %d: %d %s", n, resp.StatusCode, raw)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	// The rejected submission reached a terminal state: a concurrent
	// waiter that joined it in the admission window must not block
	// forever, and its status stays queryable.
	st := waitState(t, ts, earmacFingerprint(t, rejected), StateFailed)
	if !strings.Contains(st.Error, "queue is full") {
		t.Errorf("rejected job status error = %q", st.Error)
	}
}

// TestQueueFullRetryAfter: the queue-full 503 carries a Retry-After
// header (whole seconds, derived from the backlog) that clients can
// honour. A draining 503 carries none: the server is going away, not
// busy.
func TestQueueFullRetryAfter(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	long := func(n int) string {
		return fmt.Sprintf(`{"algorithm":"orchestra","n":%d,"rounds":4000000000}`, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := 6; ; n++ {
		resp, raw := post(t, ts.URL+"/v1/jobs", long(n))
		if resp.StatusCode == http.StatusServiceUnavailable {
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 || secs > 60 {
				t.Fatalf("queue-full Retry-After = %q, want an integer in [1, 60]", ra)
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", n, resp.StatusCode, raw)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	svc.cancelAll()
	svc.Drain(ctx)
	resp, _ := post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("draining 503 carries Retry-After %q; retrying a draining server is pointless", ra)
	}
}

// TestConcurrentDuplicateSubmissions: N goroutines submitting equivalent
// spellings of one Config must join a single job — exactly one
// simulation — and every one of them must receive byte-identical result
// bytes. This is the dedup/join path under race (the -race CI job runs
// this test with the detector on).
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	// Equivalent spellings: zero fields vs their explicit defaults, and
	// permuted key order — all one fingerprint.
	spellings := []string{
		`{"algorithm":"count-hop","n":5,"rho_num":1,"rho_den":3,"rounds":25000}`,
		`{"algorithm":"count-hop","n":5,"k":3,"rho_num":1,"rho_den":3,"rounds":25000}`,
		`{"algorithm":"count-hop","n":5,"rho_num":1,"rho_den":3,"beta":1,"rounds":25000,"seed":1}`,
		`{"rounds":25000,"rho_den":3,"rho_num":1,"n":5,"algorithm":"count-hop","pattern":"uniform"}`,
	}
	const waves = 4 // 16 concurrent submissions
	n := waves * len(spellings)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(spellings[i%len(spellings)]))
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
				return
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("submission %d: %d %v %s", i, resp.StatusCode, err, raw)
				return
			}
			bodies[i] = raw
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("submission %d received different bytes:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	// Exactly one submission created the job (miss); the rest were
	// deduplicated onto it or served from the cache (hits).
	st := svc.cache.Stats()
	if st.Misses != 1 || st.Hits != int64(n-1) {
		t.Errorf("dedup stats: hits=%d misses=%d, want %d/1", st.Hits, st.Misses, n-1)
	}
	done, failed, cancelled := svc.tallies()
	if done != 1 || failed != 0 || cancelled != 0 {
		t.Errorf("job tallies = %d done, %d failed, %d cancelled, want exactly one done job", done, failed, cancelled)
	}
}

// TestDiskCacheAcrossRestart: with CacheDir set, a completed result
// survives a server restart — the fresh process serves it byte-identical
// from the disk tier without re-simulating, and /v1/cache/preload warms
// the memory tier explicitly.
func TestDiskCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(Options{Workers: 1, CacheDir: dir})
	svc1.Start()
	ts1 := httptest.NewServer(svc1)
	resp, first := post(t, ts1.URL+"/v1/run", quickConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc1.Drain(ctx)
	ts1.Close()

	svc2, ts2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	resp, raw := post(t, ts2.URL+"/v1/cache/preload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preload: %d %s", resp.StatusCode, raw)
	}
	var pre preloadResponse
	json.Unmarshal(raw, &pre)
	if pre.Loaded != 1 {
		t.Fatalf("preload loaded %d entries, want 1", pre.Loaded)
	}
	resp, second := post(t, ts2.URL+"/v1/run", quickConfig)
	if got := resp.Header.Get(headerCache); got != cacheHit {
		t.Errorf("restarted server cache header = %q, want %q", got, cacheHit)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("disk-tier response not byte-identical:\n%s\n%s", first, second)
	}
	if done, _, _ := svc2.tallies(); done != 0 {
		t.Errorf("restarted server ran %d jobs; the disk tier should have served the result", done)
	}
}

// TestHealthzJobAndCacheCounters pins the new healthz schema: per-state
// job counters plus cache hit/miss/eviction/disk figures.
func TestHealthzJobAndCacheCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	healthz := func() (healthResponse, []byte) {
		t.Helper()
		_, raw := get(t, ts.URL+"/v1/healthz")
		var h healthResponse
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatalf("healthz: %v (%s)", err, raw)
		}
		return h, raw
	}
	post(t, ts.URL+"/v1/run", quickConfig) // miss
	post(t, ts.URL+"/v1/run", quickConfig) // hit
	h, raw := healthz()
	if h.Jobs.Done != 1 || h.Jobs.Failed != 0 || h.Jobs.Cancelled != 0 {
		t.Errorf("healthz jobs = %+v, want exactly one done", h.Jobs)
	}
	if h.Cache.Hits != 1 || h.Cache.Misses != 1 || h.Cache.Entries != 1 {
		t.Errorf("healthz cache = %+v, want 1 hit / 1 miss / 1 entry", h.Cache)
	}
	// The raw JSON carries every counter field the smoke scripts grep for.
	for _, key := range []string{`"jobs"`, `"done"`, `"failed"`, `"cancelled"`, `"evictions"`, `"disk_hits"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("healthz body missing %s:\n%s", key, raw)
		}
	}
	// A synchronous run's 200 means its job is already tallied: healthz
	// read right after each response counts every run so far.
	for i := 1; i <= 50; i++ {
		cfg := fmt.Sprintf(`{"algorithm":"count-hop","n":5,"rho_num":1,"rho_den":3,"rounds":2000,"seed":%d}`, i)
		if resp, body := post(t, ts.URL+"/v1/run", cfg); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, resp.StatusCode, body)
		}
		if h, _ := healthz(); h.Jobs.Done != int64(i+1) {
			t.Fatalf("after run %d: healthz jobs = %+v, want done = %d", i, h.Jobs, i+1)
		}
	}
}

// TestRecordParamFalseDoesNotForceRerun: ?record=0 must behave like no
// record request at all — served from the cache, no re-simulation.
func TestRecordParamFalseDoesNotForceRerun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, first := post(t, ts.URL+"/v1/run", quickConfig)
	resp, second := post(t, ts.URL+"/v1/run?record=0", quickConfig)
	if got := resp.Header.Get(headerCache); got != cacheHit {
		t.Errorf("record=0 resubmit cache header = %q, want %q", got, cacheHit)
	}
	if !bytes.Equal(first, second) {
		t.Error("record=0 resubmit changed the response")
	}
	resp, raw := post(t, ts.URL+"/v1/run?record=banana", quickConfig)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("record=banana: %d %s, want 400", resp.StatusCode, raw)
	}
}

// TestReportResponsesCarryJobID: /v1/run (miss and hit) and /result
// expose the fingerprint in the X-Earmac-Job header, so a synchronous
// client can reach /trace, /stream, and /result without recomputing
// the hash.
func TestReportResponsesCarryJobID(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	fp := earmacFingerprint(t, quickConfig)
	for _, label := range []string{"miss", "hit"} {
		resp, _ := post(t, ts.URL+"/v1/run", quickConfig)
		if got := resp.Header.Get(headerJob); got != fp {
			t.Errorf("%s run %s header = %q, want %q", label, headerJob, got, fp)
		}
	}
	resp, _ := get(t, ts.URL+"/v1/jobs/"+fp+"/result")
	if got := resp.Header.Get(headerJob); got != fp {
		t.Errorf("result %s header = %q, want %q", headerJob, got, fp)
	}
}

// TestDoneRunSupersedesStaleFailure: a cancelled run leaves a terminal
// record, but once a re-run of the same fingerprint succeeds, status
// and result must agree on "done" — the stale failure may not shadow
// the cached report.
func TestDoneRunSupersedesStaleFailure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	blocker := `{"algorithm":"orchestra","n":6,"rounds":4000000000}`
	resp, raw := post(t, ts.URL+"/v1/jobs", blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", resp.StatusCode, raw)
	}
	var blockerSub submitResponse
	json.Unmarshal(raw, &blockerSub)
	waitState(t, ts, blockerSub.ID, StateRunning)
	// quickConfig queues behind the blocker; cancel it while queued.
	resp, raw = post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	json.Unmarshal(raw, &sub)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts, sub.ID, StateCancelled)
	// Re-run the cancelled config (unblock the worker first) to success.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+blockerSub.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	resp, _ = post(t, ts.URL+"/v1/run", quickConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-run: %d", resp.StatusCode)
	}
	st := waitState(t, ts, sub.ID, StateDone)
	if !st.Cached {
		t.Errorf("superseded status = %+v, want done+cached", st)
	}
}

// TestRecordJoinSemantics: a record submission for a fingerprint with a
// live job never forks a second run — it upgrades the job while it is
// still queued, and conflicts (503) once the job is running without
// recording.
func TestRecordJoinSemantics(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	blocker := `{"algorithm":"orchestra","n":6,"rounds":4000000000}`
	resp, raw := post(t, ts.URL+"/v1/jobs", blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", resp.StatusCode, raw)
	}
	var blockerSub submitResponse
	json.Unmarshal(raw, &blockerSub)
	waitState(t, ts, blockerSub.ID, StateRunning)

	// quickConfig queues (worker busy); the record submission joins it
	// and flips the flag before dispatch.
	resp, raw = post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	json.Unmarshal(raw, &sub)
	resp, raw = post(t, ts.URL+"/v1/jobs?record=1", quickConfig)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("record join of queued job: %d %s", resp.StatusCode, raw)
	}
	var joined submitResponse
	json.Unmarshal(raw, &joined)
	if joined.ID != sub.ID {
		t.Fatalf("record submission forked a second job: %s vs %s", joined.ID, sub.ID)
	}

	// A record request for the running, non-recording blocker conflicts.
	resp, raw = post(t, ts.URL+"/v1/run?record=1", blocker)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("record of running non-record job: %d %s, want 503", resp.StatusCode, raw)
	}
	var eb errorBody
	json.Unmarshal(raw, &eb)
	if !strings.Contains(eb.Error, "conflicting options") {
		t.Errorf("conflict body = %q", eb.Error)
	}

	// While the recording job is still queued/running, its trace is "not
	// ready" (409), never "unknown" (404).
	resp, raw = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/trace")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(raw), "not ready") {
		t.Errorf("trace of in-flight recording job: %d %s, want 409 not-ready", resp.StatusCode, raw)
	}

	// Unblock; the joined job runs with recording on: trace available.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+blockerSub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts, sub.ID, StateDone)
	resp, _ = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trace after upgraded record join: %d, want 200", resp.StatusCode)
	}
}

// TestResubmitAfterCancelledQueuedJob: cancelling a queued job must not
// leave a corpse in the live map — an immediate resubmission of the
// same config starts a fresh run instead of joining the cancelled job.
func TestResubmitAfterCancelledQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	blocker := `{"algorithm":"orchestra","n":6,"rounds":4000000000}`
	resp, raw := post(t, ts.URL+"/v1/jobs", blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", resp.StatusCode, raw)
	}
	var blockerSub submitResponse
	json.Unmarshal(raw, &blockerSub)
	waitState(t, ts, blockerSub.ID, StateRunning)
	resp, raw = post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	json.Unmarshal(raw, &sub)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	// Resubmit immediately — while the cancelled job's corpse would
	// still be queued. It must come back as a fresh queued job, not the
	// cancelled one.
	resp, raw = post(t, ts.URL+"/v1/jobs", quickConfig)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after cancel: %d %s", resp.StatusCode, raw)
	}
	var resub submitResponse
	json.Unmarshal(raw, &resub)
	if resub.Status != StateQueued {
		t.Fatalf("resubmit status = %q, want queued (fresh job, not the cancelled corpse)", resub.Status)
	}
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+blockerSub.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	// The fresh job runs to completion and its success is what status
	// reports — the popped corpse must not shadow it.
	st := waitState(t, ts, sub.ID, StateDone)
	if !st.Cached && st.Error != "" {
		t.Errorf("final status = %+v", st)
	}
}

// TestCancelCompletedJob: DELETE on a job that already completed (and
// so lives only in the cache) reports done, consistent with status —
// not 404.
func TestCancelCompletedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post(t, ts.URL+"/v1/run", quickConfig)
	fp := earmacFingerprint(t, quickConfig)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+fp, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel of completed job: %d %s, want 200", resp.StatusCode, raw)
	}
	var st statusResponse
	json.Unmarshal(raw, &st)
	if st.Status != StateDone || !st.Cached {
		t.Errorf("cancel of completed job = %+v, want done+cached", st)
	}
}

// TestStatusPollingDoesNotSkewCacheStats: read-path lookups (status
// polls of an unknown or running job) must not count as cache misses —
// the healthz statistics measure submission dedup only.
func TestStatusPollingDoesNotSkewCacheStats(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	post(t, ts.URL+"/v1/run", quickConfig) // one genuine miss
	fp := earmacFingerprint(t, quickConfig)
	for i := 0; i < 25; i++ {
		get(t, ts.URL+"/v1/jobs/"+fp)
		get(t, ts.URL+"/v1/jobs/"+fp+"/result")
		get(t, ts.URL+"/v1/jobs/sha256:unknown")
	}
	st := svc.cache.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Errorf("after polling: hits=%d misses=%d, want 0/1 (submission stats only)", st.Hits, st.Misses)
	}
}

func TestHealthzAndCapabilities(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, raw := get(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("healthz = %+v", h)
	}
	resp, raw = get(t, ts.URL+"/v1/capabilities")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capabilities: %d", resp.StatusCode)
	}
	var caps capabilitiesResponse
	if err := json.Unmarshal(raw, &caps); err != nil {
		t.Fatal(err)
	}
	if len(caps.Algorithms) == 0 || len(caps.Patterns) == 0 {
		t.Errorf("capabilities empty: %s", raw)
	}
	if len(caps.Topologies) == 0 || caps.Topologies[len(caps.Topologies)-1] != "star" {
		t.Errorf("capabilities topologies = %v, want the sorted topology kinds", caps.Topologies)
	}
	if got := fmt.Sprint(caps.TraceVersions); got != "[1 2 3]" {
		t.Errorf("capabilities trace versions = %v", caps.TraceVersions)
	}
}

// TestRunNetworkConfig: a network-of-channels config flows through the
// service — the per-channel breakdown survives the cache, and the same
// experiment with the channel count spelled explicitly (its default) is
// a byte-identical cache hit, while a different topology misses.
func TestRunNetworkConfig(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"algorithm":"orchestra","n":5,"topology":"line","rho_num":1,"rho_den":2,"beta":3,"pattern":"bernoulli","seed":7,"rounds":3000}`
	resp, raw := post(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("network run: %d: %s", resp.StatusCode, raw)
	}
	var rep earmac.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Topology != "line" || rep.Channels != 2 || len(rep.PerChannel) != 2 {
		t.Fatalf("network report lost its channel dimension: %+v", rep)
	}
	// Explicit default channel count: same fingerprint, cache hit,
	// byte-identical body.
	explicit := `{"algorithm":"orchestra","n":5,"topology":"line","channels":2,"rho_num":1,"rho_den":2,"beta":3,"pattern":"bernoulli","seed":7,"rounds":3000}`
	resp2, raw2 := post(t, ts.URL+"/v1/run", explicit)
	if resp2.Header.Get(headerCache) != cacheHit {
		t.Errorf("equivalent topology spelling was not a cache hit")
	}
	if string(raw2) != string(raw) {
		t.Errorf("cache hit not byte-identical")
	}
	// A different topology is a different experiment.
	star := `{"algorithm":"orchestra","n":5,"topology":"star","channels":2,"rho_num":1,"rho_den":2,"beta":3,"pattern":"bernoulli","seed":7,"rounds":3000}`
	resp3, _ := post(t, ts.URL+"/v1/run", star)
	if resp3.Header.Get(headerCache) != cacheMiss {
		t.Errorf("different topology served from cache")
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, path := range []string{"/v1/jobs/sha256:beef", "/v1/jobs/sha256:beef/result", "/v1/jobs/sha256:beef/trace", "/v1/jobs/sha256:beef/stream"} {
		resp, _ := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c := NewCache(2, "")
	c.Put("a", Entry{Report: []byte("A")})
	c.Put("b", Entry{Report: []byte("B")})
	// Touch a: it is now the most recently used, so inserting c must
	// evict b, not a — the LRU upgrade over the old FIFO.
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("entry a missing before eviction")
	}
	c.Put("c", Entry{Report: []byte("C")}) // evicts b (least recently used)
	if _, ok := c.Peek("b"); ok {
		t.Error("least-recently-used entry not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Peek(k); !ok {
			t.Errorf("entry %s evicted prematurely", k)
		}
	}
	// Duplicate put keeps the original report bytes but attaches a trace.
	c.Put("a", Entry{Report: []byte("A2"), Trace: []byte("T")})
	e, _ := c.Peek("a")
	if string(e.Report) != "A" || string(e.Trace) != "T" {
		t.Errorf("duplicate put: report %q trace %q, want A / T", e.Report, e.Trace)
	}
	c.MarkHit()
	c.MarkMiss()
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 hit, 1 miss, 1 eviction", st)
	}
}

// TestCacheDiskTier: the disk tier persists entries across cache
// instances (the server-restart scenario), promotes them back into
// memory on a miss, counts disk hits, and keeps entries that were
// evicted from the memory LRU.
func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	fpA := "sha256:" + strings.Repeat("a", 64)
	fpB := "sha256:" + strings.Repeat("b", 64)
	fpC := "sha256:" + strings.Repeat("c", 64)

	c1 := NewCache(2, dir)
	c1.Put(fpA, Entry{Report: []byte("A\n"), Trace: []byte("TA\n")})
	c1.Put(fpB, Entry{Report: []byte("B\n")})
	c1.Put(fpC, Entry{Report: []byte("C\n")}) // evicts A from memory only
	if st := c1.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted entry comes back from disk, trace intact.
	e, ok := c1.Peek(fpA)
	if !ok || string(e.Report) != "A\n" || string(e.Trace) != "TA\n" {
		t.Fatalf("evicted entry not recovered from disk: %+v ok=%v", e, ok)
	}
	if st := c1.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}

	// A fresh cache over the same directory (a restarted process) serves
	// every entry from the disk tier.
	c2 := NewCache(16, dir)
	for fp, want := range map[string]string{fpA: "A\n", fpB: "B\n", fpC: "C\n"} {
		e, ok := c2.Peek(fp)
		if !ok || string(e.Report) != want {
			t.Errorf("restart peek %s = %q ok=%v, want %q", fp[:16], e.Report, ok, want)
		}
	}
	if st := c2.Stats(); st.DiskHits != 3 || st.Entries != 3 {
		t.Errorf("restart stats = %+v, want 3 disk hits, 3 entries", st)
	}

	// Preload warms a cold cache without counting disk hits as traffic.
	c3 := NewCache(16, dir)
	n, err := c3.Preload()
	if err != nil || n != 3 {
		t.Fatalf("preload = %d, %v, want 3 entries", n, err)
	}
	if n, err = c3.Preload(); err != nil || n != 0 {
		t.Errorf("second preload = %d, %v, want 0 (idempotent)", n, err)
	}
	if st := c3.Stats(); st.Entries != 3 || st.DiskHits != 0 {
		t.Errorf("preloaded stats = %+v, want 3 resident entries, 0 disk hits", st)
	}

	// Stray files never round-trip into fingerprints.
	if err := os.WriteFile(filepath.Join(dir, "junk.report"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c4 := NewCache(16, dir)
	if n, _ := c4.Preload(); n != 3 {
		t.Errorf("preload with stray file = %d, want 3", n)
	}
}
