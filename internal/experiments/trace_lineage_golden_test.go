package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/telemetry"
)

// The lineage-trace golden pins the bytes of an edit re-run: each task
// runs cold on a fresh artifact store, has its first iterate stage
// edited, and runs again with a recorder attached. That second run
// replays cached nodes into the ones the edit dirtied, so a change to
// how a replay streams its artifact, which edges it feeds or how its
// trace and counters are built shows here byte for byte. -update
// re-records the file from the current tree.

const traceLineageGoldenPath = "testdata/trace_lineage_golden.json"

type traceLineageRow struct {
	Task          string   `json:"task"`
	TraceSHA256   string   `json:"trace_sha256"`
	MetricsSHA256 string   `json:"metrics_sha256"`
	Spans         int      `json:"spans"`    // virtual-clock spans
	Replayed      []string `json:"replayed"` // workflow nodes served from the store that emitted rows
}

func traceLineageRun(t *testing.T) []traceLineageRow {
	t.Helper()
	var rows []traceLineageRow
	for _, name := range []string{"dice", "kge", "gotta", "wef"} {
		cfg := Config{RunConfig: core.RunConfig{Workers: 1}, Scale: 10, Seed: 1}.normalize()
		task, err := traceTask(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		store, err := lineage.NewStore(cfg.Model, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cold, err := cfg.RunConfig.With(core.WithLineage(store))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := core.RunBoth(task, cold); err != nil {
			t.Fatalf("%s: cold run: %v", name, err)
		}
		task.(editable).SetEdits(map[string]int{iterateStages[name][0]: 1})
		rec := telemetry.New()
		warm, err := cold.With(core.WithTelemetry(rec))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := core.RunBoth(task, warm); err != nil {
			t.Fatalf("%s: edit run: %v", name, err)
		}

		var tb, mb bytes.Buffer
		if err := rec.WriteChromeTrace(&tb, telemetry.ExportOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := rec.WriteMetrics(&mb, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts, ms := sha256.Sum256(tb.Bytes()), sha256.Sum256(mb.Bytes())
		row := traceLineageRow{
			Task:          name,
			TraceSHA256:   hex.EncodeToString(ts[:]),
			MetricsSHA256: hex.EncodeToString(ms[:]),
			Replayed:      []string{},
		}
		for _, sp := range rec.Spans() {
			if sp.HasVirt {
				row.Spans++
			}
		}
		snap := rec.Metrics.Snapshot(false)
		counters := map[string]int64{}
		for _, c := range snap.Counters {
			counters[c.Name] = c.Value
		}
		for _, c := range snap.Counters {
			node, ok := strings.CutSuffix(c.Name, ".lineage_hit")
			if ok && strings.HasPrefix(node, "wf.") && c.Value > 0 && counters[node+".out_tuples"] > 0 {
				row.Replayed = append(row.Replayed, node)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func TestTraceLineageGolden(t *testing.T) {
	got := traceLineageRun(t)
	// A task with no replayed node pins nothing about replays.
	for _, row := range got {
		if len(row.Replayed) == 0 {
			t.Errorf("%s: the edit run replays no workflow node", row.Task)
		}
	}
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, row := range got {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		if i < len(got)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceLineageGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceLineageGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("lineage edit traces moved:\n--- got\n%s--- recorded\n%s", buf.Bytes(), want)
	}
}
