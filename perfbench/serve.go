package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"earmac"
	"earmac/internal/report"
	"earmac/internal/service"
)

// Response headers of the service: the cache disposition and the job id.
const (
	cacheHeader = "X-Earmac-Cache"
	jobHeader   = "X-Earmac-Job"
)

// serveConfig is the one shape of served config: a short run on the
// façade's defaults (strict, conservation-checked), varied only by seed.
func serveConfig(seed, rounds int64) earmac.Config {
	return earmac.Config{Algorithm: "count-hop", N: 6, Rounds: rounds, Seed: seed}
}

// request is one planned request of the serve schedule.
type request struct {
	cfg int  // index into schedule.configs
	hit bool // planned disposition: false for a config's first request
}

// schedule is the serve workload's input, a pure function of the seed:
// each config is first POSTed with ?record=1 (a miss: simulate, record,
// encode, cache), then re-requested among the hits that follow.
type schedule struct {
	configs []earmac.Config
	bodies  [][]byte
	reqs    []request
	warm    []earmac.Config // warm-up configs, disjoint from configs
}

func newSchedule(seed int64, sz size) schedule {
	var s schedule
	base := derive(seed, 1)
	rng := rand.New(rand.NewSource(derive(seed, 2)))
	for i := 0; i < sz.serveConfigs; i++ {
		s.configs = append(s.configs, serveConfig(base+int64(i), sz.serveRounds))
		s.reqs = append(s.reqs, request{cfg: i})
		for k := 0; k < sz.serveHits; k++ {
			s.reqs = append(s.reqs, request{cfg: rng.Intn(i + 1), hit: true})
		}
	}
	for i := 0; i < sz.serveWarm; i++ {
		s.warm = append(s.warm, serveConfig(base+int64(sz.serveConfigs+i), sz.serveRounds))
	}
	s.bodies = make([][]byte, len(s.configs))
	for i, c := range s.configs {
		s.bodies[i] = mustJSON(c)
	}
	return s
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only marshalable config fields
	}
	return raw
}

// response is what the client saw for one request.
type response struct {
	status      int
	disposition string
	job         string
	body        []byte
	latency     time.Duration
	err         error
}

// serveWorkload drives earmac-serve's handler (service.New with one
// simulation worker) behind an httptest loopback listener with one
// closed-loop client in the same process. Every pass starts a fresh
// server, so every pass replays the same schedule onto an empty cache.
type serveWorkload struct {
	seed   int64
	sz     size
	sched  schedule
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer
	resps  []response
	passes int

	// Latencies of every pass, in milliseconds.
	hitMs, missMs []float64
}

func newServe(seed int64, sz size) *serveWorkload {
	return &serveWorkload{seed: seed, sz: sz, sched: newSchedule(seed, sz)}
}

func (w *serveWorkload) setup(tr *tracer) error {
	w.tr = tr
	w.srv = service.New(service.Options{Workers: 1})
	w.srv.Start()
	w.ts = httptest.NewServer(w.srv)
	w.client = w.ts.Client()
	// Warm-up: open the keep-alive connection and fill the server's
	// buffers with configs the schedule never requests.
	for _, c := range w.sched.warm {
		body := mustJSON(c)
		for k, path := range []string{"/v1/run?record=1", "/v1/run", "/v1/run"} {
			want := "hit"
			if k == 0 {
				want = "miss"
			}
			if r := w.do(http.MethodPost, path, body, "warm"); r.err != nil || r.status != http.StatusOK || r.disposition != want {
				return fmt.Errorf("warm-up request: status %d, cache %q, err %v", r.status, r.disposition, r.err)
			}
		}
	}
	w.resps = make([]response, len(w.sched.reqs))
	return nil
}

// do sends one request and reads the whole response.
func (w *serveWorkload) do(method, path string, body []byte, op string) response {
	root := w.tr.begin("http."+method, op, -1)
	start := time.Now()
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return response{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	w.tr.end(root)
	return response{
		status: resp.StatusCode, disposition: resp.Header.Get(cacheHeader), job: resp.Header.Get(jobHeader),
		body: raw, latency: lat, err: err,
	}
}

func (w *serveWorkload) run(tr *tracer) {
	for i, rq := range w.sched.reqs {
		path := "/v1/run"
		if !rq.hit {
			path = "/v1/run?record=1"
		}
		w.resps[i] = w.do(http.MethodPost, path, w.sched.bodies[rq.cfg], "req"+strconv.Itoa(i))
	}
}

// replaysPerPass is how many recorded traces each pass replays.
const replaysPerPass = 4

func (w *serveWorkload) check(ck *checker) {
	first := w.missBodies()
	misses := sha256.New()
	for i, rq := range w.sched.reqs {
		r := w.resps[i]
		var problems []string
		switch {
		case r.err != nil:
			problems = append(problems, r.err.Error())
		case r.status != http.StatusOK:
			problems = append(problems, fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body)))
		}
		want := "miss"
		if rq.hit {
			want = "hit"
			if !bytes.Equal(r.body, first[rq.cfg]) {
				problems = append(problems, fmt.Sprintf("hit bytes differ from config %d's first response", rq.cfg))
			}
			w.hitMs = append(w.hitMs, ms(r.latency))
		} else {
			misses.Write(r.body)
			w.missMs = append(w.missMs, ms(r.latency))
		}
		if r.disposition != want {
			problems = append(problems, fmt.Sprintf("cache %q, planned %q", r.disposition, want))
		}
		ck.op("serve/req", "", problems...)
	}
	ck.op("serve/reports", hex.EncodeToString(misses.Sum(nil))[:16])

	// Replay a rotating sample of recorded traces.
	jobs := w.missJobs()
	for k := 0; k < replaysPerPass && k < len(jobs); k++ {
		c := (w.passes*replaysPerPass + k) % len(jobs)
		_, _, _, err := w.replay(jobs[c], first[c])
		if err != nil {
			ck.op("serve/replay", "", fmt.Sprintf("config %d: %v", c, err))
		} else {
			ck.op("serve/replay", "")
		}
	}
	w.passes++
}

// missBodies returns each config's first (miss) response body.
func (w *serveWorkload) missBodies() [][]byte {
	out := make([][]byte, len(w.sched.configs))
	for i, rq := range w.sched.reqs {
		if !rq.hit {
			out[rq.cfg] = w.resps[i].body
		}
	}
	return out
}

// missJobs returns each config's job id from its miss response.
func (w *serveWorkload) missJobs() []string {
	out := make([]string, len(w.sched.configs))
	for i, rq := range w.sched.reqs {
		if !rq.hit {
			out[rq.cfg] = w.resps[i].job
		}
	}
	return out
}

// replay downloads a recorded trace, replays it in-process and checks
// the replayed report against the served bytes. It returns the trace
// size and the read and replay times.
func (w *serveWorkload) replay(job string, served []byte) (traceBytes int, read, run time.Duration, err error) {
	r := w.do(http.MethodGet, "/v1/jobs/"+job+"/trace", nil, "trace")
	if r.err != nil || r.status != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("trace download: status %d, err %v", r.status, r.err)
	}
	t0 := time.Now()
	t, err := earmac.ReadTrace(bytes.NewReader(r.body))
	read = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	cfg, err := earmac.ReplayConfig(t)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	rep, err := earmac.Run(cfg)
	run = time.Since(t1)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("replay: %w", err)
	}
	if !bytes.Equal(report.CanonicalJSON(rep), served) {
		return 0, 0, 0, fmt.Errorf("replayed report differs from the served bytes")
	}
	return len(r.body), read, run, nil
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w.srv.Drain(ctx) // an idle server drains at once
		w.srv = nil
	}
}

func (w *serveWorkload) summary(out io.Writer) {
	fmt.Fprintf(out, "  request latency, send to last byte, one closed-loop client:\n")
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"hit", w.hitMs}, {"miss", w.missMs}} {
		fmt.Fprintf(out, "  %s_p50_ms %10.4f ms  %s_p90_ms %10.4f ms  %s_p99_ms %10.4f ms  (%d samples)\n",
			c.name, quantile(c.xs, 0.5), c.name, quantile(c.xs, 0.9), c.name, quantile(c.xs, 0.99), len(c.xs))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
