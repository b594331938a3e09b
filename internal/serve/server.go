package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/scenario"
)

// Server is the HTTP face of a Manager. Endpoints:
//
//	POST   /v1/jobs          submit a JobSpec; 201 + Job
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     one job's snapshot
//	GET    /v1/jobs/{id}/stream  NDJSON stream of Job snapshots,
//	                         one line per change, until terminal
//	DELETE /v1/jobs/{id}     cancel; 200 + Job
//	GET    /v1/catalog       registered scenarios and protocols
//	GET    /v1/version       build identity
//	GET    /v1/healthz       liveness
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wires the endpoints onto a fresh mux.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/catalog", s.catalog)
	s.mux.HandleFunc("GET /v1/version", s.version)
	s.mux.HandleFunc("GET /v1/healthz", s.healthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSONResponse writes v with the given status.
func writeJSONResponse(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSONResponse(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxSubmitBytes bounds a POST /v1/jobs body. A job spec is a few
// hundred bytes; the cap keeps one request from buffering unbounded
// input.
const maxSubmitBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "invalid job spec: %v", err)
		return
	}
	job, err := s.m.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSONResponse(w, http.StatusCreated, job)
}

// decodeJobSpec reads exactly one JSON job spec: unknown fields and
// anything after the first value are rejected.
func decodeJobSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch err := dec.Decode(new(json.RawMessage)); err {
	case io.EOF:
		return spec, nil
	case nil:
		return spec, errors.New("trailing data after the job spec")
	default:
		return spec, err
	}
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSONResponse(w, http.StatusOK, map[string]any{"jobs": s.m.List()})
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", r.PathValue("id"))
		return
	}
	writeJSONResponse(w, http.StatusOK, job)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		status := http.StatusConflict
		if job.ID == "" {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSONResponse(w, http.StatusOK, job)
}

// stream writes the job's snapshot as one NDJSON line now and after
// every change, ending when the job reaches a terminal state or the
// client disconnects. Snapshots are whole (not deltas): wake signals
// are coalesced, so a slow reader simply observes fewer intermediate
// states, never a gap it must reconcile.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	wake, stop, err := s.m.Watch(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	writeSnap := func(j Job) bool {
		if err := enc.Encode(j); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !writeSnap(job) {
		return
	}
	for !terminal(job.State) {
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
		job, ok = s.m.Get(id)
		if !ok || !writeSnap(job) {
			return
		}
	}
}

// catalogEntry is one registered scenario or protocol.
type catalogEntry struct {
	Name  string `json:"name"`
	Desc  string `json:"desc,omitempty"`
	Usage string `json:"usage,omitempty"`
}

func (s *Server) catalog(w http.ResponseWriter, r *http.Request) {
	var scenarios, protocols []catalogEntry
	for _, reg := range scenario.Catalog() {
		scenarios = append(scenarios, catalogEntry{Name: reg.Name, Desc: reg.Desc, Usage: reg.Usage})
	}
	for _, reg := range consensus.Catalog() {
		protocols = append(protocols, catalogEntry{Name: reg.Name, Desc: reg.Desc, Usage: reg.Usage})
	}
	writeJSONResponse(w, http.StatusOK, map[string]any{
		"scenarios": scenarios,
		"protocols": protocols,
	})
}

func (s *Server) version(w http.ResponseWriter, r *http.Request) {
	writeJSONResponse(w, http.StatusOK, cliutil.Version())
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSONResponse(w, http.StatusOK, map[string]string{"status": "ok"})
}
