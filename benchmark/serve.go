package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// opTimeout bounds one op: a batch op that took longer counts as
// failed, a sweep's requests are cancelled.
const opTimeout = 10 * time.Second

// serveTenants are the tenants the sweep clients submit as, one each.
var serveTenants = []string{"ds-team", "ml-team"}

// serveWorkload drives an in-process obs server over loopback HTTP. One
// op is one parameter sweep by one client: POST every spec to /v1/runs
// back to back, then for each run stream its events to `event: done`,
// GET the run and check it against the gate.
type serveWorkload struct {
	specs []core.RunSpec
	gate  *gate

	srv     *obs.Server
	rec     *telemetry.Recorder
	hs      *http.Server
	served  chan error
	base    string
	clientc []*http.Client
}

func newServeWorkload(specs []core.RunSpec) (*serveWorkload, error) {
	g, err := newGate(specs)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rec := telemetry.New()
	w := &serveWorkload{
		specs:  specs,
		gate:   g,
		srv:    obs.NewServerWith(obs.NewRegistry(), rec, service.Config{}),
		rec:    rec,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	w.hs = &http.Server{Handler: w.srv}
	go func() { w.served <- w.hs.Serve(ln) }()
	for range serveTenants {
		// One keep-alive connection per client: a sweep's requests are
		// sequential, and a fully read event stream frees the connection.
		w.clientc = append(w.clientc, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	}
	return w, nil
}

func (w *serveWorkload) clients() int { return len(w.clientc) }

// close stops the listener, waits for the serve loop and for the
// scheduler's queued and in-flight runs.
func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // teardown: past the timeout the process exit closes what is left
	<-w.served
	w.srv.Close()
	for _, c := range w.clientc {
		c.CloseIdleConnections()
	}
}

// counters adds the server-wide readings to the process-wide ones: the
// shared recorder's retained spans and the scheduler's tenant totals.
func (w *serveWorkload) counters() (counts, error) {
	c := processCounters()
	c["telemetry.spans_per_op"] = float64(len(w.rec.Spans()))
	var listing struct {
		Tenants []service.TenantStat `json:"tenants"`
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := w.getJSON(ctx, w.clientc[0], "/v1/tenants", &listing); err != nil {
		return nil, err
	}
	for _, t := range listing.Tenants {
		c["service.submitted"] += float64(t.Submitted)
		c["service.rejected"] += float64(t.Rejected)
		c["service.completed"] += float64(t.Completed)
		c["service.served_vcpu_s"] += t.ServedVCPUSeconds
	}
	return c, nil
}

func (w *serveWorkload) getJSON(ctx context.Context, hc *http.Client, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return decodeBody(resp.Body, v)
}

// decodeBody reads the body to its end before decoding, so the
// connection goes back to the client's pool.
func decodeBody(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// op is one sweep.
func (w *serveWorkload) op(client int, ot *opTrace) (counts, error) {
	c := make(counts)
	hc := w.clientc[client]
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	ids := make([]string, len(w.specs))
	for i, s := range w.specs {
		s.Tenant = serveTenants[client]
		var err error
		ot.span("obs.post", specLabel(s), func() { ids[i], err = w.post(ctx, hc, s) })
		if err != nil {
			return c, err
		}
	}
	for i, s := range w.specs {
		label := specLabel(s)
		var err error
		ot.span("obs.events", label, func() { err = w.streamEvents(ctx, hc, ids[i], c) })
		if err != nil {
			return c, fmt.Errorf("%s: %w", label, err)
		}
		var run obs.Detail
		ot.span("obs.get_run", label, func() { err = w.getJSON(ctx, hc, "/v1/runs/"+ids[i], &run) })
		if err != nil {
			return c, fmt.Errorf("%s: %w", label, err)
		}
		if err := w.checkRun(s, label, run.Info, c); err != nil {
			return c, err
		}
	}
	c["obs.events_per_run"] /= float64(len(w.specs))
	return c, nil
}

// post submits one spec and returns the queued run's id.
func (w *serveWorkload) post(ctx context.Context, hc *http.Client, s core.RunSpec) (string, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body) // the status is the error; the body only decorates it
		return "", fmt.Errorf("POST /v1/runs %s: %s: %s", specLabel(s), resp.Status, bytes.TrimSpace(msg))
	}
	var info obs.Info
	if err := decodeBody(resp.Body, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// streamEvents reads the run's SSE stream up to its `event: done` frame
// and on to end of stream, counting the event frames it carried and the
// events the server reported dropped.
func (w *serveWorkload) streamEvents(ctx context.Context, hc *http.Client, id string, c counts) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	done := false
	frame := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			frame = strings.TrimPrefix(line, "event: ")
			done = done || frame == "done"
		case strings.HasPrefix(line, "data: "):
			switch frame {
			case "":
				c["obs.events_per_run"]++
			case "dropped":
				n, err := strconv.Atoi(strings.TrimPrefix(line, "data: "))
				if err != nil {
					return fmt.Errorf("events of %s: bad dropped frame %q", id, line)
				}
				c["obs.dropped_events"] += float64(n)
			}
		case line == "":
			frame = ""
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("events of %s: stream ended without a done frame", id)
	}
	return nil
}

// checkRun holds a finished run against the gate: completed, and for
// each paradigm the output digest note and the summary's simulated
// seconds.
func (w *serveWorkload) checkRun(s core.RunSpec, label string, run obs.Info, c counts) error {
	if run.State != "completed" {
		return fmt.Errorf("%s: run %s is %s: %s", label, run.ID, run.State, run.Error)
	}
	for _, p := range s.Paradigms() {
		note := run.Notes[p.String()+".output_digest"]
		digest, err := strconv.ParseUint(note, 16, 64)
		if err != nil {
			return fmt.Errorf("%s: run %s has digest note %q", label, run.ID, note)
		}
		simSeconds := run.Summary[p.String()+".sim_seconds"]
		if err := w.gate.check(s, label+"/"+p.String(), digest, simSeconds); err != nil {
			return err
		}
		c["sim_s_per_op"] += simSeconds
	}
	c["service.residence_ms"] += float64(run.EndWallNS-run.StartWallNS) / 1e6
	return nil
}
