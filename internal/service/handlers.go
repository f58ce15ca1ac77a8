package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"earmac"
)

// The HTTP surface. All request and response bodies are JSON; report
// bytes come verbatim from the content-addressed cache, so two fetches
// of the same fingerprint are byte-identical by construction.
//
//	POST   /v1/run            run a Config synchronously (?record=1 to record a trace)
//	POST   /v1/jobs           submit a Config asynchronously
//	POST   /v1/suite          expand a Grid and submit every cell
//	GET    /v1/jobs/{id}      job status
//	GET    /v1/jobs/{id}/stream  progress snapshots (NDJSON, or SSE via Accept)
//	GET    /v1/jobs/{id}/result  the report (cache bytes)
//	GET    /v1/jobs/{id}/trace   the recorded injection trace (JSONL)
//	DELETE /v1/jobs/{id}      cancel
//	POST   /v1/cache/preload  warm the in-memory LRU from the disk tier
//	GET    /v1/healthz        liveness + queue/cache/job-state stats
//	GET    /v1/capabilities   registered algorithms and patterns
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/suite", s.handleSuite)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/cache/preload", s.handlePreload)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
}

// Report-response headers: the cache disposition, and the job id
// (fingerprint) so a synchronous /v1/run client can address the
// follow-up endpoints (/trace, /stream, /result) without recomputing
// the hash.
const (
	headerCache = "X-Earmac-Cache"
	headerJob   = "X-Earmac-Job"
	cacheHit    = "hit"
	cacheMiss   = "miss"
)

// Request limits, checked before any work is done so that one request
// cannot exhaust the process's memory (a Go out-of-memory error is
// fatal, not recoverable).
const (
	// maxBodyBytes caps a POST body; a larger one is answered 413. A
	// Config or Grid is a few hundred bytes.
	maxBodyBytes = 1 << 20
	// maxSuiteCells caps the cells one /v1/suite Grid may expand to; a
	// larger grid is answered 400 before it is enumerated. 65,536 cells
	// is about 23 MB of Configs, far more than the default 64-deep
	// queue can admit.
	maxSuiteCells = 1 << 16
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// submitCode maps an admission error to its status code.
func submitCode(err error) int {
	if errors.Is(err, earmac.ErrConflict) || errors.Is(err, errQueueFull) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeSubmitError writes an admission failure. A queue-full 503
// carries a Retry-After header (seconds, derived from the backlog) so
// well-behaved clients back off for roughly one drain interval instead
// of hammering. A draining 503 carries none: the server is going away,
// not busy.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, errQueueFull) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeError(w, submitCode(err), err)
}

// recordParam parses the ?record= query parameter. Absent means false;
// a present value must be a boolean ("1", "true", "0", "false", ...) so
// that ?record=0 disables recording instead of silently enabling it.
func recordParam(r *http.Request) (bool, error) {
	v := r.URL.Query().Get("record")
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad record parameter %q: want a boolean", v)
	}
	return b, nil
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v. Unknown fields are rejected so a typo'd field name fails loudly
// instead of silently running the default experiment, and so is
// anything but white space after the value, which would otherwise be
// ignored (a second config, say).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	default:
		return errors.New("unexpected data after the JSON value")
	}
}

// decodeCode maps a request-decoding or validation error to its status
// code: 413 for a body over maxBodyBytes, 400 otherwise.
func decodeCode(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeConfig reads and validates a façade Config from the body.
func decodeConfig(w http.ResponseWriter, r *http.Request) (earmac.Config, error) {
	var cfg earmac.Config
	if err := decodeBody(w, r, &cfg); err != nil {
		return earmac.Config{}, fmt.Errorf("decoding config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return earmac.Config{}, err
	}
	return cfg, nil
}

// handleRun executes a config synchronously and responds with the
// canonical report bytes: straight from the cache on a hit (no
// simulation), from the completed job otherwise. The client going away
// does not cancel the underlying job — another submission of the same
// fingerprint may be waiting on it, and the completed result is cached
// for the next request.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	cfg, err := decodeConfig(w, r)
	if err != nil {
		writeError(w, decodeCode(err), err)
		return
	}
	record, err := recordParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fp, j, e, cached, err := s.submit(cfg, record)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if cached {
		s.writeReport(w, e.Report, cacheHit, fp)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeError(w, 499, r.Context().Err()) // client closed request
		return
	}
	state, errMsg, _ := j.snapshot()
	switch state {
	case StateDone:
		s.writeReport(w, j.resultBytes(), cacheMiss, j.id)
	case StateCancelled:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s cancelled: %s", j.id, errMsg))
	default:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s", j.id, errMsg))
	}
}

func (s *Server) writeReport(w http.ResponseWriter, raw []byte, disposition, id string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(headerCache, disposition)
	w.Header().Set(headerJob, id)
	w.Write(raw)
}

// submitResponse is the envelope for asynchronous submissions.
type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

// handleSubmit enqueues a config and returns its fingerprint as the job
// id. A cache hit completes immediately (status "done", cached true);
// joining a live identical submission returns that job's current state.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cfg, err := decodeConfig(w, r)
	if err != nil {
		writeError(w, decodeCode(err), err)
		return
	}
	record, err := recordParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fp, j, _, cached, err := s.submit(cfg, record)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if cached {
		writeJSON(w, http.StatusOK, submitResponse{ID: fp, Status: StateDone, Cached: true})
		return
	}
	state, _, _ := j.snapshot()
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.id, Status: state})
}

// suiteRequest is a Grid submission; the response lists one
// submitResponse per cell, in Grid.Configs order.
func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var g earmac.Grid
	if err := decodeBody(w, r, &g); err != nil {
		writeError(w, decodeCode(err), fmt.Errorf("decoding grid: %w", err))
		return
	}
	if cells := g.Cells(); cells > maxSuiteCells {
		writeError(w, http.StatusBadRequest, fmt.Errorf("grid has %d cells, above the limit of %d", cells, maxSuiteCells))
		return
	}
	cfgs := earmac.NewSuite(g).Configs
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cell %d: %w", i, err))
			return
		}
	}
	out := make([]submitResponse, 0, len(cfgs))
	for i, cfg := range cfgs {
		fp, j, _, cached, err := s.submit(cfg, false)
		if err != nil {
			// Cells already admitted keep running; report how far we got.
			if errors.Is(err, errQueueFull) {
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			}
			writeError(w, submitCode(err), fmt.Errorf("cell %d (after %d admitted): %w", i, len(out), err))
			return
		}
		if cached {
			out = append(out, submitResponse{ID: fp, Status: StateDone, Cached: true})
		} else {
			state, _, _ := j.snapshot()
			out = append(out, submitResponse{ID: j.id, Status: state})
		}
	}
	writeJSON(w, http.StatusAccepted, out)
}

// statusResponse is the job-status envelope.
type statusResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	Round  int64  `json:"round,omitempty"`
	Total  int64  `json:"total,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.lookup(id); ok {
		state, errMsg, latest := j.snapshot()
		resp := statusResponse{ID: id, Status: state, Error: errMsg}
		if latest != nil {
			resp.Round, resp.Total = latest.Round, latest.Total
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if _, ok := s.cache.Peek(id); ok {
		writeJSON(w, http.StatusOK, statusResponse{ID: id, Status: StateDone, Cached: true})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if e, ok := s.cache.Peek(id); ok {
		s.writeReport(w, e.Report, cacheHit, id)
		return
	}
	if j, ok := s.lookup(id); ok {
		state, errMsg, _ := j.snapshot()
		switch state {
		case StateFailed, StateCancelled:
			writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", id, state, errMsg))
		default:
			writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; result not ready", id, state))
		}
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

// handleTrace serves the recorded injection trace of a run submitted
// with ?record=1 — the versioned JSONL format written by the scenario
// Encoder, replayable with `earmac-sim -replay`.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.cache.Peek(id)
	if !ok || e.Trace == nil {
		// Not served from the cache: distinguish in-flight (not ready
		// yet), terminal-without-trace, and genuinely unknown, mirroring
		// handleResult.
		if j, live := s.lookup(id); live {
			state, errMsg, _ := j.snapshot()
			switch {
			case state == StateFailed || state == StateCancelled:
				writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", id, state, errMsg))
			case j.recording():
				writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; trace not ready", id, state))
			default:
				writeError(w, http.StatusConflict,
					fmt.Errorf("job %s is not recording; re-submit with ?record=1 to produce a trace", id))
			}
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s was not recorded; re-submit with ?record=1 to produce a trace", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition", `attachment; filename="`+strings.TrimPrefix(id, "sha256:")+`.trace.jsonl"`)
	w.Write(e.Trace)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		// A completed job lives only in the cache; cancelling it is a
		// no-op, not an unknown id — keep the view consistent with
		// handleStatus.
		if _, cached := s.cache.Peek(id); cached {
			writeJSON(w, http.StatusOK, statusResponse{ID: id, Status: StateDone, Cached: true})
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	j.requestCancel()
	state, errMsg, _ := j.snapshot()
	if j.terminal() {
		// A job cancelled while queued is terminal right now: retire it
		// immediately, which releases its waiters, so a resubmission
		// starts fresh instead of joining the corpse until a worker pops
		// it.
		s.retire(j)
	}
	writeJSON(w, http.StatusOK, statusResponse{ID: id, Status: state, Error: errMsg})
}

// handleStream streams progress snapshots until the job completes: one
// JSON object per line (application/x-ndjson) by default, or Server-Sent
// Events when the client asks for text/event-stream. The final line is a
// status envelope, so a consumer always learns how the job ended.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		// A job completed earlier lives only in the cache: nothing to
		// stream but the terminal state (j stays nil).
		if _, cached := s.cache.Peek(id); !cached {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	flusher, _ := w.(http.Flusher)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	writeEvent := func(event string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
		} else {
			w.Write(raw)
			w.Write([]byte("\n"))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	final := func() {
		resp := statusResponse{ID: id, Status: StateDone, Cached: true}
		if j != nil {
			state, errMsg, latest := j.snapshot()
			resp = statusResponse{ID: id, Status: state, Error: errMsg}
			if latest != nil {
				resp.Round, resp.Total = latest.Round, latest.Total
			}
		}
		writeEvent("end", resp)
	}
	if j == nil {
		final()
		return
	}
	sub := j.subscribe()
	defer j.unsubscribe(sub)
	for {
		select {
		case p, open := <-sub:
			if !open {
				final()
				return
			}
			writeEvent("progress", p)
		case <-r.Context().Done():
			return
		}
	}
}

// jobStats is the per-state job tally healthz serves: the live gauges
// (queued, running) next to the cumulative terminal counters, so
// monitoring and the smoke script can see both the instantaneous load
// and how jobs have been ending.
type jobStats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

type healthResponse struct {
	Status   string     `json:"status"`
	Draining bool       `json:"draining,omitempty"`
	Workers  int        `json:"workers"`
	Queued   int        `json:"queued"`
	Running  int        `json:"running"`
	Jobs     jobStats   `json:"jobs"`
	Cache    CacheStats `json:"cache"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var resp healthResponse
	resp.Status = "ok"
	resp.Draining = s.Draining()
	if resp.Draining {
		resp.Status = "draining"
	}
	resp.Workers = s.opts.Workers
	resp.Queued, resp.Running = s.counts()
	resp.Jobs.Queued, resp.Jobs.Running = resp.Queued, resp.Running
	resp.Jobs.Done, resp.Jobs.Failed, resp.Jobs.Cancelled = s.tallies()
	resp.Cache = s.cache.Stats()
	writeJSON(w, http.StatusOK, resp)
}

// preloadResponse reports how many disk-tier entries a preload promoted
// into the memory LRU.
type preloadResponse struct {
	Loaded int `json:"loaded"`
}

// handlePreload warms the in-memory cache from the disk tier (a no-op
// without -cache-dir). Idempotent: already-resident entries are skipped.
func (s *Server) handlePreload(w http.ResponseWriter, r *http.Request) {
	n, err := s.cache.Preload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("preloading cache: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, preloadResponse{Loaded: n})
}

type capabilitiesResponse struct {
	Algorithms []earmac.AlgorithmEntry `json:"algorithms"`
	Patterns   []earmac.PatternEntry   `json:"patterns"`
	// Topologies lists the network-of-channels kinds Config.Topology
	// accepts; TraceVersions the trace format versions this build
	// reads, 1 through the one it writes. Clients probe these before
	// submitting network configs or uploading traces.
	Topologies    []string `json:"topologies"`
	TraceVersions []int    `json:"trace_versions"`
}

func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	versions := make([]int, earmac.TraceVersion)
	for i := range versions {
		versions[i] = i + 1
	}
	writeJSON(w, http.StatusOK, capabilitiesResponse{
		Algorithms:    earmac.AllAlgorithms(),
		Patterns:      earmac.AllPatterns(),
		Topologies:    earmac.Topologies(),
		TraceVersions: versions,
	})
}
