package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func newTestServer(t *testing.T) (*obs.Server, *httptest.Server) {
	t.Helper()
	srv := obs.NewServer(obs.NewRegistry(), telemetry.New())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //lint:allow errdrop test teardown
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// waitFinished polls until the run leaves the queued/running states.
// The tiny task sizes used here finish in well under a second.
func waitFinished(t *testing.T, run *obs.Run) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second) //lint:allow wallclock test timeout
	for st := run.State(); st == "queued" || st == "running"; st = run.State() {
		if time.Now().After(deadline) { //lint:allow wallclock test timeout
			t.Fatalf("run %s still %s after 30s", run.ID, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	srv, ts := newTestServer(t)

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz: code %d body %q", code, body)
	}

	run, err := srv.Launch(core.RunSpec{Task: "dice", Paradigm: "workflow", Size: 200})
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, run)
	if run.State() != "completed" {
		t.Fatalf("run state %q, want completed", run.State())
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		"# TYPE repro_", // at least one exposition family
		"repro_obs_runs_started_total 1",
		"repro_obs_runs_completed_total 1",
		"repro_go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body[:min(len(body), 2000)])
		}
	}
	// Exposition format sanity: every non-comment line is "name value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestRunsEndpointsAndSSE(t *testing.T) {
	_, ts := newTestServer(t)

	// Launch over HTTP while the server is up (the acceptance path).
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"dice","paradigm":"workflow","size":200}`))
	if err != nil {
		t.Fatal(err)
	}
	var launched obs.Info
	if err := json.NewDecoder(resp.Body).Decode(&launched); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //lint:allow errdrop test teardown
	if resp.StatusCode != http.StatusAccepted || launched.ID == "" {
		t.Fatalf("POST /v1/runs: code %d, info %+v", resp.StatusCode, launched)
	}

	// Stream SSE live: the run was just launched, so the stream starts
	// before the run finishes and must still drain to the done event.
	sse, err := http.Get(ts.URL + "/v1/runs/" + launched.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close() //lint:allow errdrop test teardown
	if got := sse.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/event-stream") {
		t.Fatalf("SSE content type %q", got)
	}
	var events, doneSeen int
	scanner := bufio.NewScanner(sse.Body)
	scanner.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "data: {"):
			events++
			var ev obs.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
		case strings.HasPrefix(line, "event: done"):
			doneSeen++
		}
	}
	if doneSeen != 1 {
		t.Fatalf("SSE stream ended without a done event (saw %d events)", events)
	}
	if events == 0 {
		t.Fatal("SSE stream carried no progress events")
	}

	// Listing and detail endpoints reflect the finished run.
	code, body := get(t, ts.URL+"/v1/runs")
	if code != 200 {
		t.Fatalf("/v1/runs: code %d", code)
	}
	var listing struct {
		Runs  []obs.Info `json:"runs"`
		Tasks []string   `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("/v1/runs JSON: %v\n%s", err, body)
	}
	if len(listing.Runs) != 1 || listing.Runs[0].State != "completed" {
		t.Fatalf("/v1/runs listing: %+v", listing.Runs)
	}
	if len(listing.Tasks) == 0 {
		t.Fatal("/v1/runs listing has no registered tasks")
	}

	code, body = get(t, ts.URL+"/v1/runs/"+launched.ID)
	if code != 200 {
		t.Fatalf("/v1/runs/{id}: code %d", code)
	}
	var detail obs.Detail
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatalf("/v1/runs/{id} JSON: %v", err)
	}
	if len(detail.Ops) == 0 || detail.Events == 0 {
		t.Fatalf("/v1/runs/{id} detail empty: ops=%d events=%d", len(detail.Ops), detail.Events)
	}
	if detail.Summary["workflow.sim_seconds"] <= 0 {
		t.Fatalf("missing sim_seconds summary: %+v", detail.Summary)
	}

	// Chrome trace is valid JSON with events.
	code, body = get(t, ts.URL+"/v1/runs/"+launched.ID+"/trace")
	if code != 200 {
		t.Fatalf("/v1/runs/{id}/trace: code %d", code)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	if code, _ := get(t, ts.URL+"/v1/runs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown run id: code %d, want 404", code)
	}
}

func TestLaunchRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	if _, err := srv.Launch(core.RunSpec{Task: "no-such-task"}); err == nil {
		t.Error("unknown task accepted")
	}
	if _, err := srv.Launch(core.RunSpec{Task: "dice", Paradigm: "gui"}); err == nil {
		t.Error("unknown paradigm accepted")
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"task":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //lint:allow errdrop test teardown
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty task: code %d, want 400", resp.StatusCode)
	}
}

// countedTask is a stub workload whose registry factory counts how
// often it is constructed.
type countedTask struct{}

var countedBuilds atomic.Int64

func init() {
	core.RegisterTask("obs-counted", 1, func(int, uint64) (core.Task, error) {
		countedBuilds.Add(1)
		return countedTask{}, nil
	})
}

func (countedTask) Name() string { return "obs-counted" }

func (countedTask) Run(p core.Paradigm, _ core.RunConfig) (*core.Result, error) {
	out := relation.NewTable(relation.MustSchema(relation.Field{Name: "n", Type: relation.Int}))
	return &core.Result{Task: "obs-counted", Paradigm: p, Output: out}, nil
}

// Launch checks the task name against the registry without building the
// task (datagen, and for KGE embedding training); the run builds it
// once. An unknown name is still rejected synchronously with a 400.
func TestLaunchConstructsTaskOncePerRun(t *testing.T) {
	srv, ts := newTestServer(t)
	before := countedBuilds.Load()
	for i := int64(1); i <= 2; i++ {
		run, err := srv.Launch(core.RunSpec{Task: "obs-counted"})
		if err != nil {
			t.Fatal(err)
		}
		waitFinished(t, run)
		if run.State() != "completed" {
			t.Fatalf("run state %q, want completed", run.State())
		}
		if got := countedBuilds.Load() - before; got != i {
			t.Fatalf("after %d runs the factory ran %d times, want one construction per run", i, got)
		}
	}
	code, body := postRun(t, ts.URL+"/v1/runs", `{"task":"no-such-task"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown task: code %d body %s, want 400", code, body)
	}
	if got := countedBuilds.Load() - before; got != 2 {
		t.Fatalf("rejected launch built a task: factory ran %d times", got)
	}
}

// postRun posts a run spec and returns the status code and body.
func postRun(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //lint:allow errdrop test teardown
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// envelope mirrors the single JSON error shape every handler returns.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func decodeEnvelope(t *testing.T, body string) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body is not the envelope shape: %v\n%s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env
}

// TestV1APITenantsAndGoldenOutputs drives two tenants through the
// versioned API, checks the fair-share accounting surfaces (the
// /v1/tenants listing and the per-tenant metric families), and pins
// the golden property: the output digests recorded by service-path
// runs are bit-identical to direct core runs of the same spec.
func TestV1APITenantsAndGoldenOutputs(t *testing.T) {
	srv, ts := newTestServer(t)

	launches := []struct {
		body   string
		tenant string
	}{
		{`{"api_version":"v1","task":"dice","paradigm":"workflow","size":200,"tenant":"ds-team"}`, "ds-team"},
		{`{"api_version":"v1","task":"wef","paradigm":"script","size":120,"tenant":"ml-team","workers":2}`, "ml-team"},
	}
	ids := make([]string, 0, len(launches))
	for _, l := range launches {
		code, body := postRun(t, ts.URL+"/v1/runs", l.body)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/runs: code %d body %s", code, body)
		}
		var info obs.Info
		if err := json.Unmarshal([]byte(body), &info); err != nil {
			t.Fatal(err)
		}
		if info.Tenant != l.tenant {
			t.Fatalf("launched tenant %q, want %q", info.Tenant, l.tenant)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		run, ok := srv.Registry().Run(id)
		if !ok {
			t.Fatalf("run %s not registered", id)
		}
		waitFinished(t, run)
		if run.State() != "completed" {
			t.Fatalf("run %s state %q, want completed", id, run.State())
		}
	}

	// Golden: the digests the service recorded must equal direct runs.
	for i, spec := range []core.RunSpec{
		{Task: "dice", Paradigm: "workflow", Size: 200},
		{Task: "wef", Paradigm: "script", Size: 120, Workers: 2},
	} {
		run, _ := srv.Registry().Run(ids[i])
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		task, err := norm.NewTask()
		if err != nil {
			t.Fatal(err)
		}
		rc, err := norm.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := task.Run(norm.Paradigms()[0], rc)
		if err != nil {
			t.Fatal(err)
		}
		direct := fmt.Sprintf("%016x", relation.Digest(res.Output))
		if got := run.Note(norm.Paradigm + ".output_digest"); got != direct {
			t.Fatalf("%s: service-path digest %q != direct core digest %q", norm.Task, got, direct)
		}
	}

	// The versioned listing serves both runs; the unversioned spelling
	// is gone.
	code, body := get(t, ts.URL+"/v1/runs")
	if code != 200 {
		t.Fatalf("/v1/runs: code %d", code)
	}
	var listing struct {
		Runs []obs.Info `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Runs) != 2 {
		t.Fatalf("/v1/runs listed %d runs, want 2", len(listing.Runs))
	}
	if code, _ := get(t, ts.URL+"/runs"); code != http.StatusNotFound {
		t.Fatalf("unversioned /runs: code %d, want 404", code)
	}

	// /v1/tenants reports both tenants' completed accounting.
	code, body = get(t, ts.URL+"/v1/tenants")
	if code != 200 {
		t.Fatalf("/v1/tenants: code %d", code)
	}
	var tl struct {
		BudgetVCPUs int                  `json:"budget_vcpus"`
		UsedVCPUs   int                  `json:"used_vcpus"`
		Tenants     []service.TenantStat `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.BudgetVCPUs <= 0 {
		t.Fatalf("budget %d", tl.BudgetVCPUs)
	}
	seen := map[string]service.TenantStat{}
	for _, st := range tl.Tenants {
		seen[st.Tenant] = st
	}
	for _, tenant := range []string{"ds-team", "ml-team"} {
		st, ok := seen[tenant]
		if !ok || st.Completed != 1 || st.ServedVCPUSeconds <= 0 {
			t.Fatalf("tenant %s accounting wrong: %+v (all %+v)", tenant, st, tl.Tenants)
		}
	}

	// Per-tenant metric families are exposed with tenant labels.
	code, body = get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code %d", code)
	}
	for _, want := range []string{
		"repro_service_vcpus_budget",
		`repro_service_submitted_total{tenant="ds-team"} 1`,
		`repro_service_submitted_total{tenant="ml-team"} 1`,
		`repro_service_queue_depth{tenant="ds-team"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestErrorEnvelopeAndStatusCodes pins the single error shape and the
// typed-error → status mapping of the versioned API.
func TestErrorEnvelopeAndStatusCodes(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := postRun(t, ts.URL+"/v1/runs", `{"task":"dice","workers":4096}`)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized workers: code %d, want 400", code)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != "too_many_workers" {
		t.Fatalf("oversized workers: envelope code %q", env.Error.Code)
	}

	code, body = postRun(t, ts.URL+"/v1/runs", `{"task":"no-such-task"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown task: code %d, want 400", code)
	}
	decodeEnvelope(t, body)

	code, body = get(t, ts.URL+"/v1/runs/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown run: code %d, want 404", code)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != "not_found" {
		t.Fatalf("unknown run: envelope code %q", env.Error.Code)
	}
}

// TestStartRunBodyLimit pins the POST /v1/runs body bound: an oversized
// body is 413 + the too_large envelope and registers no run; a normal
// spec behind the same reader is still accepted. The handler is driven
// in-process so the client never races the server closing the socket.
func TestStartRunBodyLimit(t *testing.T) {
	srv := obs.NewServer(obs.NewRegistry(), telemetry.New())
	t.Cleanup(srv.Close)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		return rec
	}

	// Valid JSON up to the limit, so the decoder fails on the bound and
	// not on syntax.
	rec := post(`{"task":"` + strings.Repeat("a", 2<<20) + `"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: code %d, want 413", rec.Code)
	}
	if env := decodeEnvelope(t, rec.Body.String()); env.Error.Code != "too_large" {
		t.Fatalf("2 MiB body: envelope code %q", env.Error.Code)
	}
	if runs := srv.Registry().Runs(); len(runs) != 0 {
		t.Fatalf("oversized body registered %d runs", len(runs))
	}

	if rec := post(`{"task":"dice","paradigm":"workflow","size":10}`); rec.Code != http.StatusAccepted {
		t.Fatalf("normal spec: code %d body %s", rec.Code, rec.Body)
	}
}

// TestAdmissionRejectionOverHTTP saturates a one-deep tenant queue
// with budget-wide jobs and checks the 429 + tenant_saturated mapping,
// and that the rejected submission leaves no run behind.
func TestAdmissionRejectionOverHTTP(t *testing.T) {
	srv := obs.NewServerWith(obs.NewRegistry(), telemetry.New(), service.Config{QueueCap: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Each job demands the whole budget, so the first occupies the
	// cluster, the second queues, and the third must be rejected.
	spec := fmt.Sprintf(`{"task":"dice","paradigm":"both","size":2000,"tenant":"burst","workers":%d}`, srv.Service().Budget())
	sawRejection := false
	for i := 0; i < 3; i++ {
		code, body := postRun(t, ts.URL+"/v1/runs", spec)
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			sawRejection = true
			if env := decodeEnvelope(t, body); env.Error.Code != "tenant_saturated" {
				t.Fatalf("429 envelope code %q", env.Error.Code)
			}
		default:
			t.Fatalf("POST %d: code %d body %s", i, code, body)
		}
	}
	if !sawRejection {
		t.Fatal("three budget-wide submissions at queue cap 1 produced no 429")
	}

	// The rollback path removed the rejected run: only admitted runs
	// are listed, and they all drain to completion.
	runs := srv.Registry().Runs()
	if len(runs) != 2 {
		t.Fatalf("%d runs registered, want 2 (rejected one rolled back)", len(runs))
	}
	for _, run := range runs {
		waitFinished(t, run)
		if run.State() != "completed" {
			t.Fatalf("run %s state %q", run.ID, run.State())
		}
	}
}

// TestRenderPromStable pins the Prometheus renderer as a pure function
// of the snapshot: same snapshot, same bytes; names sanitized.
func TestRenderPromStable(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("wf.dice.node.join-sentences.out_tuples").Add(42)
	reg.Gauge("queue.depth").Set(7)
	reg.Histogram("batch.latency", "ns").Observe(900)
	snap := reg.Snapshot(true)

	var a, b bytes.Buffer
	if err := obs.RenderProm(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := obs.RenderProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("RenderProm not byte-stable:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"repro_wf_dice_node_join_sentences_out_tuples 42",
		"repro_queue_depth 7",
		"repro_queue_depth_max 7",
		`repro_batch_latency_bucket{le="1024"} 1`,
		`repro_batch_latency_bucket{le="+Inf"} 1`,
		"repro_batch_latency_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderProm missing %q:\n%s", want, out)
		}
	}
}
