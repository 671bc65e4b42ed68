package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// sampleRecorder builds a recorder with spans from two paradigms.
func sampleRecorder() *Recorder {
	r := New()
	r.SetMeta("task", "dice")
	r.Metrics.Counter("edge.src.op.p0.tuples").Add(42)
	r.Metrics.Gauge("queue.depth").Set(6)
	r.Metrics.Histogram("batch.latency", "ns").Observe(1500)
	r.Record(
		Span{Proc: "script:dice", Track: "kernel", Name: "imports", Cat: "cell",
			HasVirt: true, Virtual: Virt{Start: 0, Dur: 1.5},
			HasWall: true, Clock: Wall{StartNS: 100, DurNS: 900}},
		Span{Proc: "workflow:dice", Track: "parse", Name: "parse:p0:b0", Cat: "operator",
			HasVirt: true, Virtual: Virt{Start: 0.5, Dur: 0.25}, Tuples: 10},
		// Overlapping span on the same track: must land on a second lane.
		Span{Proc: "workflow:dice", Track: "parse", Name: "parse:p0:b1", Cat: "operator",
			HasVirt: true, Virtual: Virt{Start: 0.6, Dur: 0.25}, Worker: 1},
		Span{Proc: "workflow:dice", Track: "parse", Name: "wall", Cat: "wall",
			HasWall: true, Clock: Wall{StartNS: 0, DurNS: 5000}},
	)
	r.AddCritical(CriticalRow{Proc: "workflow:dice", Track: "parse", Jobs: 2, Seconds: 0.5})
	return r
}

func TestChromeTraceShapeAndLanes(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteChromeTrace(&buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var xEvents, wallEvents int
	tids := map[float64]bool{}
	for _, e := range tr.TraceEvents {
		if e["ph"] == "X" {
			xEvents++
			if e["name"] == "wall" {
				wallEvents++
			}
			if strings.HasPrefix(e["name"].(string), "parse:") {
				tids[e["tid"].(float64)] = true
			}
		}
	}
	if xEvents != 3 {
		t.Fatalf("span events = %d, want 3 (wall spans excluded by default)", xEvents)
	}
	if wallEvents != 0 {
		t.Fatalf("wall span leaked into deterministic export")
	}
	if len(tids) != 2 {
		t.Fatalf("overlapping spans share a lane: tids = %v", tids)
	}

	var withWall bytes.Buffer
	if err := sampleRecorder().WriteChromeTrace(&withWall, ExportOptions{IncludeWall: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withWall.String(), "(wall)") {
		t.Fatal("IncludeWall did not add the wall process")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleRecorder().WriteChromeTrace(&a, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sampleRecorder().WriteChromeTrace(&b, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of identical data differ")
	}
}

func TestMetricsDumpModes(t *testing.T) {
	r := sampleRecorder()
	var det bytes.Buffer
	if err := r.WriteMetrics(&det, false); err != nil {
		t.Fatal(err)
	}
	s := det.String()
	if strings.Contains(s, "queue.depth") || strings.Contains(s, "batch.latency") || strings.Contains(s, "wall_tracks") {
		t.Fatalf("volatile data leaked into deterministic dump:\n%s", s)
	}
	if !strings.Contains(s, "edge.src.op.p0.tuples") || !strings.Contains(s, "critical_path") {
		t.Fatalf("deterministic dump missing expected sections:\n%s", s)
	}
	var full bytes.Buffer
	if err := r.WriteMetrics(&full, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), "queue.depth") || !strings.Contains(full.String(), "wall_tracks") {
		t.Fatalf("volatile dump missing sections:\n%s", full.String())
	}
}

func TestWriteSummaryMentionsTracksAndCriticalPath(t *testing.T) {
	var buf bytes.Buffer
	sampleRecorder().WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"workflow:dice", "script:dice", "critical path", "parse", "wall-clock profile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
