package obs

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Server is the HTTP surface over the run registry and the
// multi-tenant service: submissions queue through fair-share
// scheduling with admission control, while the observability endpoints
// (SSE progress, Prometheus metrics, Chrome traces, pprof) read the
// registry directly. The run API is versioned under /v1/.
// One shared telemetry recorder backs /metrics (its counters are
// monotonic across runs, which is what Prometheus scrapes expect) and
// the Chrome-trace endpoint.
type Server struct {
	reg *Registry
	rec *telemetry.Recorder
	svc *service.Service
	mux *http.ServeMux
}

// NewServerWith builds the server around an explicitly sized
// scheduler. Pass a fresh NewRegistry()/telemetry.New() pair for a
// standalone server.
func NewServerWith(reg *Registry, rec *telemetry.Recorder, cfg service.Config) *Server {
	s := &Server{reg: reg, rec: rec, mux: http.NewServeMux()}
	s.svc = service.New(cfg, s.runJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("POST /v1/runs", s.handleStartRun)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	// pprof must be wired explicitly: the package's init only touches
	// http.DefaultServeMux, which this server deliberately avoids.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops accepting submissions and waits for queued and
// in-flight runs to finish.
func (s *Server) Close() { s.svc.Close() }

// Launch validates the spec, registers a queued run and submits it to
// the fair-share scheduler; the run executes when the scheduler
// dispatches it. The spec is validated up front so callers get
// "unknown task" (and admission rejections) synchronously; the task is
// only looked up in the registry here, and constructed once, when the
// run executes.
func (s *Server) Launch(spec core.RunSpec) (*Run, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if _, err := core.TaskDefaultSize(spec.Task); err != nil {
		return nil, err
	}
	run := s.reg.StartQueued(spec.Task, spec.Paradigm, spec.Tenant, s.rec)
	_, err = s.svc.Submit(service.Job{
		ID:       run.ID,
		Tenant:   spec.Tenant,
		Priority: spec.Priority,
		VCPUs:    spec.Workers,
		Spec:     spec,
	})
	if err != nil {
		s.reg.Remove(run.ID)
		return nil, err
	}
	return run, nil
}

// runJob is the service Runner: it marks the registered run live,
// executes the spec and finishes the run. Scheduler bookkeeping
// (releasing vCPUs, re-pumping the queue) happens in the service once
// this returns. A run's error is recorded on the run, where GET
// /v1/runs/{id} and the failed-runs counter read it.
func (s *Server) runJob(job *service.Job) {
	run, ok := s.reg.Run(job.ID)
	if !ok {
		return // Launch registers every run before it submits the job
	}
	run.MarkRunning()
	summary, err := executeRun(job.Spec, run, s.rec)
	run.Finish(summary, err)
}

// executeRun runs the spec with the run handle attached as its live
// progress sink and folds the results into the run summary. Each
// paradigm's output digest is recorded as a run note, so clients (and
// the golden tests) can check service-path runs against direct core
// runs bit-for-bit.
func executeRun(spec core.RunSpec, run *Run, rec *telemetry.Recorder) (map[string]float64, error) {
	results, err := spec.Run(core.WithTelemetry(rec), core.WithProgress(run))
	if err != nil {
		return nil, err
	}
	summary := make(map[string]float64)
	for _, res := range results {
		p := res.Paradigm.String()
		summary[p+".sim_seconds"] = res.SimSeconds
		summary[p+".parallel_procs"] = float64(res.ParallelProcs)
		summary[p+".operators"] = float64(res.Operators)
		run.SetNote(p+".output_digest", fmt.Sprintf("%016x", relation.Digest(res.Output)))
	}
	return summary, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the shared registry snapshot in Prometheus
// text format, then appends process-level families (registry run
// counts, scheduler budget and per-tenant queue/admission series,
// goroutines, heap, GC) that exist independently of any run.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := RenderProm(w, s.rec.Metrics.Snapshot(true)); err != nil {
		return
	}
	started, completed, failed := s.reg.Counts()
	fmt.Fprintf(w, "# HELP repro_obs_runs_started_total runs started\n# TYPE repro_obs_runs_started_total counter\nrepro_obs_runs_started_total %d\n", started)
	fmt.Fprintf(w, "# HELP repro_obs_runs_completed_total runs completed\n# TYPE repro_obs_runs_completed_total counter\nrepro_obs_runs_completed_total %d\n", completed)
	fmt.Fprintf(w, "# HELP repro_obs_runs_failed_total runs failed\n# TYPE repro_obs_runs_failed_total counter\nrepro_obs_runs_failed_total %d\n", failed)
	var droppedEvents int64
	for _, r := range s.reg.Runs() {
		droppedEvents += r.DroppedEvents()
	}
	fmt.Fprintf(w, "# HELP repro_obs_dropped_events_total events lost to SSE drop-oldest backpressure\n# TYPE repro_obs_dropped_events_total counter\nrepro_obs_dropped_events_total %d\n", droppedEvents)
	fmt.Fprintf(w, "# HELP repro_service_vcpus_budget admitted vCPU budget\n# TYPE repro_service_vcpus_budget gauge\nrepro_service_vcpus_budget %d\n", s.svc.Budget())
	fmt.Fprintf(w, "# HELP repro_service_vcpus_used dispatched vCPUs\n# TYPE repro_service_vcpus_used gauge\nrepro_service_vcpus_used %d\n", s.svc.UsedVCPUs())
	stats := s.svc.Stats()
	writeTenantFamily(w, "repro_service_queue_depth", "gauge", "queued runs per tenant", stats, func(t service.TenantStat) float64 { return float64(t.Queued) })
	writeTenantFamily(w, "repro_service_inflight_runs", "gauge", "dispatched runs per tenant", stats, func(t service.TenantStat) float64 { return float64(t.Inflight) })
	writeTenantFamily(w, "repro_service_submitted_total", "counter", "submissions per tenant", stats, func(t service.TenantStat) float64 { return float64(t.Submitted) })
	writeTenantFamily(w, "repro_service_rejected_total", "counter", "admission rejections per tenant", stats, func(t service.TenantStat) float64 { return float64(t.Rejected) })
	writeTenantFamily(w, "repro_service_served_vcpu_seconds_total", "counter", "completed admitted vCPU-seconds per tenant", stats, func(t service.TenantStat) float64 { return t.ServedVCPUSeconds })
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP repro_go_goroutines current goroutines\n# TYPE repro_go_goroutines gauge\nrepro_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP repro_go_heap_alloc_bytes heap in use\n# TYPE repro_go_heap_alloc_bytes gauge\nrepro_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP repro_go_gc_total completed GC cycles\n# TYPE repro_go_gc_total counter\nrepro_go_gc_total %d\n", ms.NumGC)
}

// writeTenantFamily renders one labelled per-tenant metric family.
// stats arrive sorted by tenant, keeping the exposition byte-stable.
func writeTenantFamily(w http.ResponseWriter, name, kind, help string, stats []service.TenantStat, value func(service.TenantStat) float64) {
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, t := range stats {
		fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, t.Tenant, value(t))
	}
}

// runsListing is the /v1/runs response body.
type runsListing struct {
	Runs  []Info   `json:"runs"`
	Tasks []string `json:"tasks"`
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.reg.Runs()
	listing := runsListing{Runs: make([]Info, 0, len(runs)), Tasks: core.TaskNames()}
	for _, r := range runs {
		listing.Runs = append(listing.Runs, r.Info())
	}
	slices.SortFunc(listing.Runs, func(a, b Info) int { return cmp.Compare(a.ID, b.ID) })
	writeJSON(w, http.StatusOK, listing)
}

// tenantsListing is the /v1/tenants response body.
type tenantsListing struct {
	BudgetVCPUs int                  `json:"budget_vcpus"`
	UsedVCPUs   int                  `json:"used_vcpus"`
	Tenants     []service.TenantStat `json:"tenants"`
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, tenantsListing{
		BudgetVCPUs: s.svc.Budget(),
		UsedVCPUs:   s.svc.UsedVCPUs(),
		Tenants:     s.svc.Stats(),
	})
}

// maxSpecBytes bounds a POST /v1/runs body; a RunSpec is a few hundred
// bytes, so anything near the limit is not a spec.
const maxSpecBytes = 1 << 20

func (s *Server) handleStartRun(w http.ResponseWriter, r *http.Request) {
	var spec core.RunSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "too_large", fmt.Errorf("obs: run spec over %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("obs: bad run spec: %w", err))
		return
	}
	run, err := s.Launch(spec)
	if err != nil {
		code, status := classifyLaunchErr(err)
		httpError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Info())
}

// classifyLaunchErr maps typed scheduling/validation errors onto the
// error envelope's code and the HTTP status.
func classifyLaunchErr(err error) (code string, status int) {
	var saturated *service.ErrTenantSaturated
	var tooLarge *service.ErrJobTooLarge
	var tooMany *core.ErrTooManyWorkers
	switch {
	case errors.As(err, &saturated):
		return "tenant_saturated", http.StatusTooManyRequests
	case errors.As(err, &tooLarge):
		return "job_too_large", http.StatusBadRequest
	case errors.As(err, &tooMany):
		return "too_many_workers", http.StatusBadRequest
	default:
		return "bad_request", http.StatusBadRequest
	}
}

func (s *Server) lookupRun(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	id := r.PathValue("id")
	run, ok := s.reg.Run(id)
	if !ok {
		httpError(w, http.StatusNotFound, "not_found", fmt.Errorf("obs: no run %q", id))
		return nil, false
	}
	return run, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Detail())
}

// handleEvents streams the run's progress events as SSE: one `data:`
// frame per event (the JSON Event), a final `event: done` frame once
// the run has finished and the stream has drained, heartbeat comments
// are unnecessary because every publish wakes the stream. A client
// attaching mid-run first receives the retained ring, then live
// events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		httpError(w, http.StatusInternalServerError, "internal", fmt.Errorf("obs: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	streamEvents(w, flusher, run, r.Context().Done())
}

// eventSource is what an event stream reads: a run's events since a
// cursor, one buffer at a time (Run.EventsSince), and, once done, its
// final state.
type eventSource interface {
	EventsSince(cursor int64, buf []Event) (n int, next, dropped int64, wake <-chan struct{}, done bool)
	State() string
}

// eventChunk is how many events a stream reads per EventsSince: the
// size of the one buffer it reuses, and of the run's lock hold.
const eventChunk = 64

// streamEvents writes src's events to w as SSE frames, flushing once it
// has caught up, until src is done and drained or stop is closed. It
// reads the events into one buffer, and formats each frame's id line
// into another, that the stream reuses, so an event costs no heap
// object of its own.
func streamEvents(w io.Writer, flusher http.Flusher, src eventSource, stop <-chan struct{}) {
	var cursor int64
	enc := json.NewEncoder(w)
	var line []byte
	buf := make([]Event, eventChunk)
	for {
		n, next, dropped, wake, done := src.EventsSince(cursor, buf)
		if dropped > 0 {
			// Drop-oldest backpressure: the ring outran this stream.
			// Tell the client how many events it lost rather than
			// silently skipping the gap.
			fmt.Fprintf(w, "event: dropped\ndata: %d\n\n", dropped)
		}
		for i := range buf[:n] {
			line = strconv.AppendInt(append(line[:0], "id: "...), buf[i].Seq, 10)
			line = append(line, "\ndata: "...)
			if _, err := w.Write(line); err != nil {
				return
			}
			if err := enc.Encode(&buf[i]); err != nil {
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
		}
		cursor = next
		if done {
			fmt.Fprintf(w, "event: done\ndata: %q\n\n", src.State())
			flusher.Flush()
			return
		}
		if wake == nil {
			continue // a full buffer with more events retained
		}
		if n > 0 {
			flusher.Flush()
		}
		select {
		case <-wake:
		case <-stop:
			return
		}
	}
}

// handleTrace serves the shared recorder's spans as Chrome trace-event
// JSON (the same export `repro -trace` writes). The recorder is shared
// across runs, so the trace shows every run this server has executed —
// the multi-run view is the point of a long-running surface.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	rec := run.Recorder()
	if rec == nil {
		httpError(w, http.StatusNotFound, "not_found", fmt.Errorf("obs: run %s has no telemetry recorder", run.ID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	includeWall := r.URL.Query().Get("wall") == "1"
	if err := rec.WriteChromeTrace(w, telemetry.ExportOptions{IncludeWall: includeWall}); err != nil {
		httpError(w, http.StatusInternalServerError, "internal", err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do for this response.
		return //lint:allow errdrop response already committed
	}
}

// errorEnvelope is the single JSON error shape every obs/service
// handler returns: {"error": {"code", "message"}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: err.Error()}}) //lint:allow errdrop best-effort error body
}
