package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// The fault-trace golden pins the bytes of what `repro trace <task>
// -scale 10 -faults 5` exports, not just its totals: the sha256 of the
// deterministic Chrome trace and metrics dump, the virtual span count,
// and the killed-attempt spans per trace process. Both engines turn a
// faulty schedule into spans, so a change to that conversion, to the
// fault horizon or to the schedule's shape shows here byte for byte.
// -update re-records the file from the current tree.

var update = flag.Bool("update", false, "re-record the trace goldens under testdata from the current tree")

const traceGoldenPath = "testdata/trace_faults_golden.json"

type traceGoldenRow struct {
	Task          string         `json:"task"`
	TraceSHA256   string         `json:"trace_sha256"`
	MetricsSHA256 string         `json:"metrics_sha256"`
	Spans         int            `json:"spans"`  // virtual-clock spans
	Killed        map[string]int `json:"killed"` // killed-attempt spans per process
}

func traceGoldenRun(t *testing.T) []traceGoldenRow {
	t.Helper()
	// What `repro trace -faults 5` arms at the default seed.
	rc, err := core.RunConfig{}.With(core.WithFaults(faults.Plan{Seed: 1, Rate: 5, NodeFraction: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	var rows []traceGoldenRow
	for _, task := range []string{"dice", "kge", "gotta", "wef"} {
		rec, err := Trace(task, Config{RunConfig: rc, Scale: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		var tb, mb bytes.Buffer
		if err := rec.WriteChromeTrace(&tb, telemetry.ExportOptions{}); err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if err := rec.WriteMetrics(&mb, false); err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		ts, ms := sha256.Sum256(tb.Bytes()), sha256.Sum256(mb.Bytes())
		row := traceGoldenRow{
			Task:          task,
			TraceSHA256:   hex.EncodeToString(ts[:]),
			MetricsSHA256: hex.EncodeToString(ms[:]),
			Killed:        map[string]int{},
		}
		for _, sp := range rec.Spans() {
			if !sp.HasVirt {
				continue
			}
			row.Spans++
			if _, ok := row.Killed[sp.Proc]; !ok {
				row.Killed[sp.Proc] = 0
			}
			if strings.Contains(sp.Name, ":killed#") {
				row.Killed[sp.Proc]++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func TestTraceFaultsGolden(t *testing.T) {
	got := traceGoldenRun(t)
	// The golden must pin the killed-attempt path of both engines.
	for _, paradigm := range []string{"script:", "workflow:"} {
		n := 0
		for _, row := range got {
			for proc, k := range row.Killed {
				if strings.HasPrefix(proc, paradigm) {
					n += k
				}
			}
		}
		if n == 0 {
			t.Errorf("no %s process holds a killed attempt; the golden pins no recovery spans there", paradigm)
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
		if err := os.WriteFile(traceGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("fault traces moved:\n--- got\n%s--- recorded\n%s", buf.Bytes(), want)
	}
}
