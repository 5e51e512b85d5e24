package labd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/benchstore"
	"repro/internal/scenario"
)

// APIVersion is the served API prefix; incompatible changes get a new
// prefix, and old ones keep working for a deprecation window.
const APIVersion = "v1"

// apiError is the machine-readable error body every non-2xx response
// carries: {"error":{"code":"unknown_scenario","message":"..."}}.
type apiError struct {
	// Code is a stable, machine-matchable identifier.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// errorBody is the error envelope.
type errorBody struct {
	Error apiError `json:"error"`
}

// Error codes the API emits.
const (
	CodeBadRequest      = "bad_request"
	CodeBodyTooLarge    = "body_too_large"
	CodeUnknownScenario = "unknown_scenario"
	CodeNotFound        = "not_found"
	CodeQueueFull       = "queue_full"
	CodeDraining        = "draining"
	CodeJobNotDone      = "job_not_done"
	CodeBenchDisabled   = "bench_disabled"
	CodeInternal        = "internal"
)

// ScenarioInfo is one /v1/scenarios entry.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// HasQuick marks scenarios with a reduced smoke configuration.
	HasQuick bool `json:"has_quick"`
}

// ScenarioDetail is the /v1/scenarios/{name} body.
type ScenarioDetail struct {
	ScenarioInfo
	DefaultConfig any `json:"default_config"`
	QuickConfig   any `json:"quick_config,omitempty"`
}

// BenchRequest asks the server to append a finished job's reports as the
// next point of its benchmark trajectory.
type BenchRequest struct {
	// JobID names a job in state "done".
	JobID string `json:"job_id"`
	// Label labels the snapshot (default: its BENCH_<n> point name).
	Label string `json:"label,omitempty"`
}

// BenchResponse reports the appended trajectory point.
type BenchResponse struct {
	Path     string               `json:"path"`
	Snapshot *benchstore.Snapshot `json:"snapshot"`
}

// Health is the /v1/healthz body.
type Health struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Jobs     int    `json:"jobs"`
	Pending  int    `json:"pending"`
	Draining bool   `json:"draining"`
}

// OK reports whether the backend is accepting new work: serving and not
// draining. This is the predicate fleet dispatchers use to exclude
// backends at planning time.
func (h *Health) OK() bool { return h != nil && h.Status == "ok" && !h.Draining }

// Handler returns the versioned HTTP API over the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/scenarios/{name}", s.handleScenario)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/bench", s.handleBench)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no route %s %s under /%s", r.Method, r.URL.Path, APIVersion)
	})
	return mux
}

// writeJSON writes a 2xx JSON response. Marshaling happens before the
// header goes out, so an unencodable value (e.g. a non-finite metric
// written straight into a Metrics map) surfaces as a 500 with the
// guard's descriptive error, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

// writeError writes the machine-readable error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{
		Status: "ok", Workers: s.cfg.Workers, Jobs: jobs,
		Pending: s.pendingCount(), Draining: draining,
	})
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []ScenarioInfo
	for _, sc := range scenario.List() {
		out = append(out, scenarioInfo(sc))
	}
	writeJSON(w, http.StatusOK, out)
}

func scenarioInfo(sc scenario.Scenario) ScenarioInfo {
	_, hasQuick := sc.(scenario.QuickConfiger)
	return ScenarioInfo{Name: sc.Name(), Description: sc.Describe(), HasQuick: hasQuick}
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	sc, err := scenario.Lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, CodeUnknownScenario, "%v", err)
		return
	}
	detail := ScenarioDetail{ScenarioInfo: scenarioInfo(sc), DefaultConfig: sc.DefaultConfig()}
	if q, ok := sc.(scenario.QuickConfiger); ok {
		detail.QuickConfig = q.QuickConfig()
	}
	writeJSON(w, http.StatusOK, detail)
}

// maxBodyBytes bounds every POST body the API decodes.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, refusing unknown fields and
// bodies over maxBodyBytes. On failure it writes the error response — 413
// body_too_large or 400 bad_request — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "%s is over %d bytes", what, tooLarge.Limit)
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding %s: %v", what, err)
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, "job spec", &spec) {
		return
	}
	st, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, st)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, CodeQueueFull, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "%v", err)
	case errors.Is(err, ErrUnknownScenario):
		writeError(w, http.StatusNotFound, CodeUnknownScenario, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's events as NDJSON. ?since=N resumes after
// sequence number N (default: from the start); ?follow=1 keeps the
// stream open, delivering events as they happen, until the job reaches a
// terminal state. Without follow, the currently buffered events are
// returned and the stream ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	since := -1
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad since %q", v)
			return
		}
		since = n
	}
	follow := r.URL.Query().Get("follow") != ""
	if _, _, _, ok := s.Events(id, since); !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, wait, done, _ := s.Events(id, since)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
			since = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow || done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// handleBench turns a finished job's reports into the next point of the
// server's benchmark trajectory.
func (s *Server) handleBench(w http.ResponseWriter, r *http.Request) {
	if s.cfg.BenchDir == "" {
		writeError(w, http.StatusServiceUnavailable, CodeBenchDisabled, "server has no bench directory configured")
		return
	}
	var req BenchRequest
	if !decodeBody(w, r, "bench request", &req) {
		return
	}
	st, ok := s.Get(req.JobID)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", req.JobID)
		return
	}
	// Only a fully green job is a trajectory point; a partial run would
	// poison the trajectory (same rule as labctl bench).
	if st.State != StateDone || st.Result == nil {
		writeError(w, http.StatusConflict, CodeJobNotDone, "job %s is %s — only done jobs append trajectory points", st.ID, st.State)
		return
	}
	snap := benchstore.FromReports(req.Label, st.Result.Reports()...)
	snap.Quick = st.Spec.Quick
	snap.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	s.benchMu.Lock()
	path, err := benchstore.AppendDir(s.cfg.BenchDir, snap)
	s.benchMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "appending trajectory point: %v", err)
		return
	}
	s.logf("bench: job %s appended as %s", st.ID, path)
	writeJSON(w, http.StatusOK, BenchResponse{Path: path, Snapshot: snap})
}
